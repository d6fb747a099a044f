package main

import (
	"sort"
	"time"
)

// Calibrated seconds. The hosts this benchmark runs on are shared: the same
// binary on the same inputs runs 1.3x slower or faster for minutes at a time
// (CPU speed, not steal — user CPU time moves with wall), which is more than
// any bound a wall-clock metric could be given. So the timed region is
// interleaved with a speed probe — a fixed, allocation-free CPU kernel run at
// every wave boundary — and wall time is divided by the mean slowdown the
// probes saw: seconds as they would have been on a host where the probe takes
// exactly probeRef. A change to the program cannot move the probe, so
// calibrated time moves only with the program.
//
// The probe says little about the next half second (host noise is bursty;
// correlation 0.4 at that scale) and a lot about an episode: over 22
// back-to-back steady_text episodes of one seed, raw wall had an
// interquartile range of 5.5 % of its median, wall over mean probe 1.9 %
// (correlation 0.8). So calibration always divides by a mean over many
// probes, never by a single one.

// probeRef is the probe time of the reference host: about what this machine
// class measures in its fast state, so calibrated and raw seconds agree
// there.
const probeRef = 1500 * time.Microsecond

var probeSrc, probeBuf [16384]float64

func init() {
	x := uint64(88172645463325252)
	for i := range probeSrc {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		probeSrc[i] = float64(x>>11) / (1 << 53)
	}
}

// probe returns the host's current slowdown relative to the reference:
// the fastest of three kernel runs over probeRef.
func probe() float64 {
	best := time.Duration(0)
	for i := 0; i < 3; i++ {
		probeBuf = probeSrc
		t := time.Now()
		sort.Float64s(probeBuf[:])
		if d := time.Since(t); best == 0 || d < best {
			best = d
		}
	}
	return float64(best) / float64(probeRef)
}

// Segment is one stretch of the timed region between two probes: a wave, a
// block of planning requests, or a set-up.
type Segment struct {
	Ops  int
	Wall time.Duration
	Slow float64 // mean of the probes before and after
}

// calibrated returns the ops, raw seconds and calibrated seconds of a run of
// segments: raw seconds over the mean slowdown of its probes.
func calibrated(segs []Segment) (ops int, rawSec, calSec float64) {
	slow := 0.0
	for _, s := range segs {
		ops += s.Ops
		rawSec += s.Wall.Seconds()
		slow += s.Slow
	}
	return ops, rawSec, ratio(rawSec*float64(len(segs)), slow)
}
