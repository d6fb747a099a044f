// Package experiments reproduces every table and figure of the paper's
// evaluation (D3.3 §4 and the MuSQLE appendix): each harness regenerates
// the corresponding plot's series or table rows. Absolute numbers come from
// the simulated engine substrate; the shapes — who wins, by what factor,
// where crossovers and failure walls fall — are the reproduction targets
// (see EXPERIMENTS.md for paper-vs-measured).
package experiments

import (
	"fmt"
	"math"
	"strings"
)

// Point is one (x, y) sample; Failed marks configurations that could not
// run (e.g. OOM), which the paper plots as truncated lines.
type Point struct {
	X      float64
	Y      float64
	Failed bool
}

// Series is one labelled line of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Table is one table of a report.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Report is the output of one experiment harness.
type Report struct {
	ID     string // e.g. "FIG11"
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Tables []Table
	Notes  []string
}

// AddSeries appends a series.
func (r *Report) AddSeries(label string, pts ...Point) {
	r.Series = append(r.Series, Series{Label: label, Points: pts})
}

// Note appends a free-form observation.
func (r *Report) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Render prints the report as aligned text (the textual equivalent of the
// paper's figure).
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if len(r.Series) > 0 {
		fmt.Fprintf(&b, "%s vs %s\n", r.YLabel, r.XLabel)
		// Collect the x domain.
		xs := map[float64]bool{}
		for _, s := range r.Series {
			for _, p := range s.Points {
				xs[p.X] = true
			}
		}
		domain := make([]float64, 0, len(xs))
		for x := range xs {
			domain = append(domain, x)
		}
		sortFloats(domain)

		fmt.Fprintf(&b, "%14s", r.XLabel)
		for _, s := range r.Series {
			fmt.Fprintf(&b, "%16s", s.Label)
		}
		b.WriteByte('\n')
		for _, x := range domain {
			fmt.Fprintf(&b, "%14s", fmtNum(x))
			for _, s := range r.Series {
				cell := "-"
				for _, p := range s.Points {
					if p.X == x {
						if p.Failed {
							cell = "FAIL"
						} else {
							cell = fmtNum(p.Y)
						}
					}
				}
				fmt.Fprintf(&b, "%16s", cell)
			}
			b.WriteByte('\n')
		}
	}
	for _, t := range r.Tables {
		fmt.Fprintf(&b, "-- %s --\n", t.Title)
		for _, h := range t.Header {
			fmt.Fprintf(&b, "%18s", h)
		}
		b.WriteByte('\n')
		for _, row := range t.Rows {
			for _, c := range row {
				fmt.Fprintf(&b, "%18s", c)
			}
			b.WriteByte('\n')
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// SeriesByLabel fetches a series.
func (r *Report) SeriesByLabel(label string) (Series, bool) {
	for _, s := range r.Series {
		if s.Label == label {
			return s, true
		}
	}
	return Series{}, false
}

// YAt returns the series value at x.
func (s Series) YAt(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x && !p.Failed {
			return p.Y, true
		}
	}
	return 0, false
}

func fmtNum(v float64) string {
	av := math.Abs(v)
	switch {
	case v == math.Trunc(v) && av < 1e6:
		return fmt.Sprintf("%.0f", v)
	case av >= 1e6:
		return fmt.Sprintf("%.3g", v)
	case av >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
