package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// The record of one invocation: metrics with their per-episode samples plus
// the environment they were measured in. -out writes one, -append adds one
// line to a JSONL history, -compare reads two files of one or more records.

// WorkloadResult is everything one invocation measured on one workload.
type WorkloadResult struct {
	Workload  string `json:"workload"`
	Episodes  int    `json:"episodes"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	VDigest   string `json:"vdigest"`
	// EndToEnd comes from the untraced pass, PerLayer from the traced one;
	// either may be absent when only the other pass ran.
	EndToEnd map[string]Sample  `json:"end_to_end,omitempty"`
	Derived  map[string]float64 `json:"derived,omitempty"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	Errors   []string           `json:"errors,omitempty"`
}

// Record is one invocation.
type Record struct {
	Time       string           `json:"time"`
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NumCPU     int              `json:"nproc"`
	GitSHA     string           `json:"git_sha"`
	Seed       int64            `json:"seed"`
	Seconds    int              `json:"seconds"`
	Quick      bool             `json:"quick,omitempty"`
	Workloads  []WorkloadResult `json:"workloads"`
}

func newRecord(seed int64, seconds int, quick bool) *Record {
	return &Record{
		Time:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       seed,
		Seconds:    seconds,
		Quick:      quick,
	}
}

// gitSHA names the commit being measured, with "+dirty" when tracked Go
// sources differ from it; a checkout without git history (the benchmark
// driver's) reads "unknown".
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	sha := strings.TrimSpace(string(out))
	if dirty, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no", "--", "*.go", "go.mod").Output(); err == nil && len(dirty) > 0 {
		sha += "+dirty"
	}
	return sha
}

func writeRecord(path string, rec *Record) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func appendRecord(path string, rec *Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords reads every record of a -out file or a JSONL history.
func readRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var recs []Record
	for {
		var r Record
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return recs, nil
}

// pooled gathers the per-episode samples of one (workload, metric) pair
// across records.
func pooled(recs []Record, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		for _, w := range r.Workloads {
			if w.Workload == workload {
				out = append(out, w.EndToEnd[metric].Values...)
			}
		}
	}
	return out
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	return ratio(q3-q1, med)
}

// Comparison verdicts.
const (
	VerdictOK         = "ok"
	VerdictRegression = "regression"
	VerdictUnresolved = "unresolved"
)

// CompareRow is one (metric, workload) pair of a comparison.
type CompareRow struct {
	Workload, Metric string
	A, B             float64 // medians
	Worse            float64 // how much worse B is than A, as a share of A (negative: better)
	Bound            float64
	SpreadA, SpreadB float64
	Verdict          string
}

// compare judges B (the change) against A (the parent) on every end-to-end
// metric of every workload both sides measured. A pair whose own
// run-to-run spread exceeds the bound cannot be called unchanged: it is
// unresolved.
func compare(a, b []Record) []CompareRow {
	var rows []CompareRow
	for _, w := range Workloads {
		for _, def := range EndToEnd {
			va, vb := pooled(a, w.Name, def.Name), pooled(b, w.Name, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			row := CompareRow{
				Workload: w.Name, Metric: def.Name,
				A: median(va), B: median(vb), Bound: def.Bound,
				SpreadA: spread(va), SpreadB: spread(vb),
			}
			row.Worse = ratio(row.B-row.A, row.A)
			if def.Better == "higher" {
				row.Worse = -row.Worse
			}
			switch {
			case row.SpreadA > def.Bound || row.SpreadB > def.Bound:
				row.Verdict = VerdictUnresolved
			case row.Worse > def.Bound:
				row.Verdict = VerdictRegression
			default:
				row.Verdict = VerdictOK
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// runCompare prints the comparison table and reports whether every row is
// ok.
func runCompare(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	rows := compare(a, b)
	if len(rows) == 0 {
		return false, errors.New("the two files share no (workload, end-to-end metric) pair")
	}
	fmt.Fprintf(w, "A = %s (%d records, %s)\nB = %s (%d records, %s)\n\n", pathA, len(a), a[0].GitSHA, pathB, len(b), b[0].GitSHA)
	fmt.Fprintf(w, "%-12s %-16s %14s %14s %9s %7s %9s %9s  %s\n",
		"workload", "metric", "A median", "B median", "B worse", "bound", "spread A", "spread B", "verdict")
	allOK := true
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-16s %14.4f %14.4f %+8.1f%% %6.0f%% %8.1f%% %8.1f%%  %s\n",
			r.Workload, r.Metric, r.A, r.B, 100*r.Worse, 100*r.Bound, 100*r.SpreadA, 100*r.SpreadB, r.Verdict)
		if r.Verdict != VerdictOK {
			allOK = false
		}
	}
	return allOK, nil
}
