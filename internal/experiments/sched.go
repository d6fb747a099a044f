package experiments

import (
	"fmt"
	"sort"

	ires "github.com/asap-project/ires"
)

// schedBurstDocs is the identical submission burst every admission policy
// receives: six text-analytics workflows of mixed sizes, all arriving at
// virtual time zero.
var schedBurstDocs = []int64{120_000, 50_000, 150_000, 80_000, 60_000, 100_000}

// schedResult aggregates one policy's run of the contention burst.
type schedResult struct {
	label     string
	batchSec  float64 // completion time of the whole burst
	meanSpan  float64 // mean per-run makespan
	meanWait  float64 // mean queue wait (admission latency)
	peak      int     // peak number of concurrently running workflows
	makespans []float64
}

// SchedContention compares admission policies on a contended burst of
// concurrent workflow submissions sharing one simulated cluster. FIFO
// serializes the burst (each run gets the whole cluster, later runs queue),
// while fair-share overlaps runs on node sub-leases — trading per-run
// makespan for batch completion time.
func SchedContention(seed int64) (*Report, error) {
	r := &Report{
		ID:     "SCHED",
		Title:  "Admission control under contention: FIFO vs fair-share",
		XLabel: "workflow (submission order)",
		YLabel: "makespan (s)",
	}
	policies := []struct {
		label string
		adm   ires.AdmissionPolicy
	}{
		{"FIFO", ires.FIFO()},
		{"FairShare(2)", ires.FairShare(2)},
		{"FairShare(4)", ires.FairShare(4)},
	}
	summary := Table{
		Title:  "Burst of 6 text workflows, per admission policy",
		Header: []string{"policy", "batch completion (s)", "mean makespan (s)", "mean queue wait (s)", "peak concurrency"},
	}
	results := make([]schedResult, 0, len(policies))
	for _, pc := range policies {
		res, err := runSchedBurst(seed, pc.label, pc.adm)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
		summary.Rows = append(summary.Rows, []string{
			res.label,
			fmt.Sprintf("%.1f", res.batchSec),
			fmt.Sprintf("%.1f", res.meanSpan),
			fmt.Sprintf("%.1f", res.meanWait),
			fmt.Sprintf("%d", res.peak),
		})
		pts := make([]Point, len(res.makespans))
		for i, m := range res.makespans {
			pts[i] = Point{X: float64(i), Y: m}
		}
		r.AddSeries(res.label, pts...)
	}
	r.Tables = append(r.Tables, summary)
	schedNotes(r, results[0], results[1])
	return r, nil
}

// schedNotes adds the notes comparing FIFO with FairShare(2), each only when
// the numbers show what it says: FIFO's zero overlap when its peak
// concurrency is 1, and the per-run cost of overlap when FairShare's mean
// makespan is above FIFO's.
func schedNotes(r *Report, fifo, fair schedResult) {
	if fifo.peak == 1 {
		r.Note("FIFO finishes the burst in %.1fs with zero overlap (peak concurrency %d); FairShare(2) finishes in %.1fs (peak %d).",
			fifo.batchSec, fifo.peak, fair.batchSec, fair.peak)
	}
	if fair.meanSpan > fifo.meanSpan {
		r.Note("Per-run makespans shift the other way: %.1fs mean under FIFO vs %.1fs under FairShare(2) — overlapped runs lease fewer nodes each.",
			fifo.meanSpan, fair.meanSpan)
	}
}

// runSchedBurst executes the standard burst under one admission policy on a
// fresh platform and aggregates the run snapshots.
func runSchedBurst(seed int64, label string, adm ires.AdmissionPolicy) (schedResult, error) {
	p, err := ires.NewPlatform(ires.Options{Seed: seed, Admission: adm})
	if err != nil {
		return schedResult{}, err
	}
	if err := profileTextOps(p, seed); err != nil {
		return schedResult{}, err
	}
	for i, docs := range schedBurstDocs {
		wf, err := TextWorkflow(p, docs)
		if err != nil {
			return schedResult{}, err
		}
		p.SubmitNamed(fmt.Sprintf("wf%02d", i), wf)
	}
	p.Drain()
	res := schedResult{label: label}
	snaps := p.Runs()
	for _, s := range snaps {
		if s.Status != "succeeded" {
			return schedResult{}, fmt.Errorf("%s: run %s ended %s: %s", label, s.ID, s.Status, s.Error)
		}
		if s.FinishedSec > res.batchSec {
			res.batchSec = s.FinishedSec
		}
		res.meanSpan += s.MakespanSec
		res.makespans = append(res.makespans, s.MakespanSec)
	}
	res.meanSpan /= float64(len(snaps))
	// Queue waits come from the metrics registry — the scheduler observes
	// every admission into ires_sched_queue_wait_vseconds, so the table and
	// the /metrics endpoint can never drift apart.
	if count, sum := p.Metrics().HistogramTotals("ires_sched_queue_wait_vseconds"); count > 0 {
		res.meanWait = sum / count
	}
	res.peak = peakOverlap(snaps)
	return res, nil
}

// peakOverlap counts the maximum number of runs simultaneously in their
// [started, finished) execution window.
func peakOverlap(snaps []ires.RunSnapshot) int {
	type edge struct {
		at    float64
		delta int
	}
	edges := make([]edge, 0, 2*len(snaps))
	for _, s := range snaps {
		edges = append(edges, edge{s.StartedSec, +1}, edge{s.FinishedSec, -1})
	}
	// Process closings before openings at equal times so back-to-back runs
	// don't count as overlapping.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	cur, peak := 0, 0
	for _, e := range edges {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}
