package trace

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry is a lock-protected counter/gauge/histogram store with a
// Prometheus-style text exposition. Series are identified by metric name plus
// a sorted label set; all mutators are safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	kinds   map[string]string  // metric name -> "counter" | "gauge" | "histogram"
	help    map[string]string  // metric name -> HELP line
	series  map[string]float64 // full series key -> value
	ordered []string           // series keys in first-seen order (resorted on write)

	buckets map[string][]float64   // histogram metric name -> upper bounds
	hists   map[string]*histSeries // full series key -> histogram state
	hOrder  []string               // histogram series keys in first-seen order
}

// histSeries is the state of one histogram series: cumulative-style bucket
// counts are derived at exposition time from the per-bucket tallies here.
type histSeries struct {
	counts []float64 // one per bucket bound, plus the +Inf overflow at the end
	sum    float64
	count  float64
}

// DefBuckets are the default histogram bounds (virtual seconds): roughly
// exponential from sub-second operator attempts to hour-long workflows.
// Fixed at compile time so expositions are deterministic across runs.
var DefBuckets = []float64{0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600, 1800, 3600}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		kinds:   make(map[string]string),
		help:    make(map[string]string),
		series:  make(map[string]float64),
		buckets: make(map[string][]float64),
		hists:   make(map[string]*histSeries),
	}
}

// seriesKey renders `name{k1="v1",k2="v2"}` with sorted label keys, which is
// also the exposition form.
func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

func (r *Registry) declare(name, kind string) {
	if _, ok := r.kinds[name]; !ok {
		r.kinds[name] = kind
	}
}

// Help attaches a HELP line to a metric name.
func (r *Registry) Help(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = text
}

// Inc adds delta to a counter series (creating it at zero).
func (r *Registry) Inc(name string, labels map[string]string, delta float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.declare(name, "counter")
	key := seriesKey(name, labels)
	if _, ok := r.series[key]; !ok {
		r.ordered = append(r.ordered, key)
	}
	r.series[key] += delta
}

// Add adds delta to a gauge series (delta may be negative).
func (r *Registry) Add(name string, labels map[string]string, delta float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.declare(name, "gauge")
	key := seriesKey(name, labels)
	if _, ok := r.series[key]; !ok {
		r.ordered = append(r.ordered, key)
	}
	r.series[key] += delta
}

// Set sets a gauge series to v.
func (r *Registry) Set(name string, labels map[string]string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.declare(name, "gauge")
	key := seriesKey(name, labels)
	if _, ok := r.series[key]; !ok {
		r.ordered = append(r.ordered, key)
	}
	r.series[key] = v
}

// DeclareHistogram registers a histogram metric with explicit upper bounds.
// Bounds must be sorted ascending; an implicit +Inf bucket is always added.
// Declaring twice keeps the first bound set (so expositions stay stable).
func (r *Registry) DeclareHistogram(name string, bounds []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.declare(name, "histogram")
	if _, ok := r.buckets[name]; !ok {
		r.buckets[name] = append([]float64(nil), bounds...)
	}
}

// Observe records one observation into a histogram series, creating the
// series (with DefBuckets unless DeclareHistogram set explicit bounds) on
// first use.
func (r *Registry) Observe(name string, labels map[string]string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.declare(name, "histogram")
	bounds, ok := r.buckets[name]
	if !ok {
		bounds = DefBuckets
		r.buckets[name] = bounds
	}
	key := seriesKey(name, labels)
	h, ok := r.hists[key]
	if !ok {
		h = &histSeries{counts: make([]float64, len(bounds)+1)}
		r.hists[key] = h
		r.hOrder = append(r.hOrder, key)
	}
	idx := len(bounds) // +Inf overflow slot
	for i, b := range bounds {
		if v <= b {
			idx = i
			break
		}
	}
	h.counts[idx]++
	h.sum += v
	h.count++
}

// HistogramCount returns the observation count of one histogram series.
func (r *Registry) HistogramCount(name string, labels map[string]string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[seriesKey(name, labels)]; ok {
		return h.count
	}
	return 0
}

// HistogramSum returns the sum of observations of one histogram series.
func (r *Registry) HistogramSum(name string, labels map[string]string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[seriesKey(name, labels)]; ok {
		return h.sum
	}
	return 0
}

// HistogramTotals sums count and sum across every label set of a histogram
// metric name (the histogram analogue of Sum).
func (r *Registry) HistogramTotals(name string) (count, sum float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for key, h := range r.hists {
		if key == name || strings.HasPrefix(key, name+"{") {
			count += h.count
			sum += h.sum
		}
	}
	return count, sum
}

// Value reads one series (zero when absent).
func (r *Registry) Value(name string, labels map[string]string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.series[seriesKey(name, labels)]
}

// Sum adds up every series of a metric name across label sets.
func (r *Registry) Sum(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := 0.0
	for key, v := range r.series {
		if key == name || strings.HasPrefix(key, name+"{") {
			total += v
		}
	}
	return total
}

// metricOf strips the label block off a series key.
func metricOf(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format, metrics sorted by name and series sorted within each metric, so
// the output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	keys := make([]string, len(r.ordered))
	copy(keys, r.ordered)
	sort.Strings(keys)
	type row struct {
		key string
		val float64
	}
	byMetric := make(map[string][]row)
	var metricNames []string
	for _, key := range keys {
		m := metricOf(key)
		if _, ok := byMetric[m]; !ok {
			metricNames = append(metricNames, m)
		}
		byMetric[m] = append(byMetric[m], row{key, r.series[key]})
	}
	hKeys := make([]string, len(r.hOrder))
	copy(hKeys, r.hOrder)
	sort.Strings(hKeys)
	type hrow struct {
		key    string
		bounds []float64
		counts []float64
		sum    float64
		count  float64
	}
	histByMetric := make(map[string][]hrow)
	for _, key := range hKeys {
		m := metricOf(key)
		if _, ok := histByMetric[m]; !ok {
			if _, seen := byMetric[m]; !seen {
				metricNames = append(metricNames, m)
			}
		}
		h := r.hists[key]
		histByMetric[m] = append(histByMetric[m], hrow{
			key:    key,
			bounds: r.buckets[m],
			counts: append([]float64(nil), h.counts...),
			sum:    h.sum,
			count:  h.count,
		})
	}
	kinds := make(map[string]string, len(r.kinds))
	for k, v := range r.kinds {
		kinds[k] = v
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	sort.Strings(metricNames)
	for _, m := range metricNames {
		if h := help[m]; h != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m, h); err != nil {
				return err
			}
		}
		kind := kinds[m]
		if kind == "" {
			kind = "untyped"
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m, kind); err != nil {
			return err
		}
		for _, rw := range byMetric[m] {
			if _, err := fmt.Fprintf(w, "%s %s\n", rw.key, formatValue(rw.val)); err != nil {
				return err
			}
		}
		for _, hr := range histByMetric[m] {
			if err := writeHistogram(w, m, hr.key, hr.bounds, hr.counts, hr.sum, hr.count); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram renders one histogram series in the cumulative-bucket
// Prometheus form: name_bucket{...,le="b"} lines (ending at le="+Inf"),
// then name_sum and name_count.
func writeHistogram(w io.Writer, metric, key string, bounds, counts []float64, sum, count float64) error {
	labels := ""
	if i := strings.IndexByte(key, '{'); i >= 0 {
		labels = strings.TrimSuffix(key[i+1:], "}") + ","
	}
	cum := 0.0
	for i, b := range bounds {
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %s\n", metric, labels, formatValue(b), formatValue(cum)); err != nil {
			return err
		}
	}
	cum += counts[len(bounds)]
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %s\n", metric, labels, formatValue(cum)); err != nil {
		return err
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + strings.TrimSuffix(labels, ",") + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", metric, suffix, formatValue(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %s\n", metric, suffix, formatValue(count))
	return err
}

// formatValue renders integers without an exponent and everything else with
// the shortest round-trip representation.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
