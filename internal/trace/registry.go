package trace

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry holds the platform's metric series, one family per metric the
// declaration table (metrics.go) lists, and renders them as a Prometheus
// text exposition. Its Recorder is its only writer; the counters other
// components own reach it through Collectors, read each time the registry is
// read. It is safe for concurrent use.
type Registry struct {
	mu sync.Mutex
	// series holds each declared metric's event-derived series (index-aligned
	// with metrics) by label value, "" when the metric is unlabeled.
	series     []map[string]*series
	collectors []Collector
}

// series is one counter, gauge or histogram series.
type series struct {
	key    string    // `name{label="value"}`, the exposition form
	val    float64   // a counter's or gauge's value; a histogram's sum
	count  float64   // histogram observations
	counts []float64 // histogram tallies, one per bound, then +Inf
}

// Collector reports the current values of counters another component owns:
// it calls put once per series of a collected metric, label values in the
// metric's declared order. The registry runs its collectors each time it is
// read, outside its own lock, so a collector may take the owner's locks even
// where the owner emits events while holding them.
type Collector func(put func(name string, v float64, labels ...string))

func newRegistry() *Registry {
	r := &Registry{series: make([]map[string]*series, len(metrics))}
	for i := range r.series {
		r.series[i] = make(map[string]*series)
	}
	return r
}

// AddCollector makes c part of every read of the registry.
func (r *Registry) AddCollector(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// fold updates every series ev feeds. A series is found by its label value
// and created on first touch, so a warmed registry allocates nothing here.
func (r *Registry) fold(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rt := range everyEvent {
		r.apply(rt, ev)
	}
	for _, rt := range routes[ev.Type] {
		r.apply(rt, ev)
	}
}

// apply folds ev into the series one feed updates; r.mu is held.
func (r *Registry) apply(rt route, ev Event) {
	v, ok := 1.0, true
	if rt.f.value != nil {
		if v, ok = rt.f.value(ev); !ok {
			return
		}
	}
	label := ""
	if rt.f.label != nil {
		label = rt.f.label(ev)
	}
	m, s := &metrics[rt.m], r.series[rt.m][label]
	if rt.f.keepMax {
		cur := 0.0
		if s != nil {
			cur = s.val
		}
		if v <= cur {
			return
		}
	}
	if s == nil {
		s = &series{key: seriesName(m, label)}
		if m.kind == histogram {
			s.counts = make([]float64, len(m.bounds)+1)
		}
		r.series[rt.m][label] = s
	}
	switch {
	case rt.f.keepMax:
		s.val = v
	case m.kind == histogram:
		s.observe(m.bounds, v)
	default:
		s.val += v
	}
}

// observe records v in the first bucket whose bound is >= v, or in the +Inf
// overflow past the last.
func (s *series) observe(bounds []float64, v float64) {
	i := len(bounds)
	for j, b := range bounds {
		if v <= b {
			i = j
			break
		}
	}
	s.counts[i]++
	s.val += v
	s.count++
}

// read returns the current series of every declared metric, index-aligned
// with metrics and sorted by key: the collectors' values, taken before the
// lock, then copies of the event-derived series.
func (r *Registry) read() [][]series {
	r.mu.Lock()
	collectors := r.collectors
	r.mu.Unlock()
	out := make([][]series, len(metrics))
	put := func(name string, v float64, labels ...string) {
		i, ok := metricIndex[name]
		if !ok || metrics[i].feeds != nil || len(labels) != len(metrics[i].labels) {
			panic(fmt.Sprintf("trace: %s%q is not a series of a collected metric", name, labels))
		}
		out[i] = append(out[i], series{key: seriesName(&metrics[i], labels...), val: v})
	}
	for _, c := range collectors {
		c(put)
	}
	r.mu.Lock()
	for i, byLabel := range r.series {
		for _, s := range byLabel {
			cp := *s
			cp.counts = slices.Clone(s.counts)
			out[i] = append(out[i], cp)
		}
	}
	r.mu.Unlock()
	for _, rows := range out {
		sort.Slice(rows, func(a, b int) bool { return rows[a].key < rows[b].key })
	}
	return out
}

// seriesOf reads the current series of one metric (none when undeclared).
func (r *Registry) seriesOf(name string) []series {
	if i, ok := metricIndex[name]; ok {
		return r.read()[i]
	}
	return nil
}

// Value reads one series (zero when absent).
func (r *Registry) Value(name string, labels map[string]string) float64 {
	key := seriesKey(name, labels)
	for _, s := range r.seriesOf(name) {
		if s.key == key {
			return s.val
		}
	}
	return 0
}

// Sum adds up every series of a metric across label sets.
func (r *Registry) Sum(name string) float64 {
	total := 0.0
	for _, s := range r.seriesOf(name) {
		total += s.val
	}
	return total
}

// HistogramTotals sums count and sum across every label set of a histogram
// metric (the histogram analogue of Sum).
func (r *Registry) HistogramTotals(name string) (count, sum float64) {
	for _, s := range r.seriesOf(name) {
		count += s.count
		sum += s.val
	}
	return count, sum
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format: metrics sorted by name, series by label set, so the output is
// deterministic. A metric with no series yet is left out.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for i, rows := range r.read() {
		if len(rows) == 0 {
			continue
		}
		m := &metrics[i]
		if m.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, m.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
		for _, s := range rows {
			if m.kind == histogram {
				writeHistogram(&b, m.name, s.key, m.bounds, s.counts, s.val, s.count)
			} else {
				fmt.Fprintf(&b, "%s %s\n", s.key, formatValue(s.val))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series in the cumulative-bucket
// Prometheus form: name_bucket{...,le="b"} lines (ending at le="+Inf"),
// then name_sum and name_count.
func writeHistogram(b *strings.Builder, metric, key string, bounds, counts []float64, sum, count float64) {
	labels := ""
	if i := strings.IndexByte(key, '{'); i >= 0 {
		labels = strings.TrimSuffix(key[i+1:], "}") + ","
	}
	cum := 0.0
	for i, bound := range bounds {
		cum += counts[i]
		fmt.Fprintf(b, "%s_bucket{%sle=%q} %s\n", metric, labels, formatValue(bound), formatValue(cum))
	}
	cum += counts[len(bounds)]
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %s\n", metric, labels, formatValue(cum))
	suffix := ""
	if labels != "" {
		suffix = "{" + strings.TrimSuffix(labels, ",") + "}"
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", metric, suffix, formatValue(sum))
	fmt.Fprintf(b, "%s_count%s %s\n", metric, suffix, formatValue(count))
}

// formatValue renders integers without an exponent and everything else with
// the shortest round-trip representation.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// seriesName renders one series of m in the exposition form
// `name{l1="v1",l2="v2"}`, values in declared label order.
func seriesName(m *metric, values ...string) string {
	if len(m.labels) == 0 {
		return m.name
	}
	var b strings.Builder
	b.WriteString(m.name)
	b.WriteByte('{')
	for i, l := range m.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(values[i]))
	}
	b.WriteByte('}')
	return b.String()
}

// seriesKey renders a reader's label set in the same form, names sorted.
func seriesKey(name string, labels map[string]string) string {
	m := metric{name: name}
	for k := range labels {
		m.labels = append(m.labels, k)
	}
	sort.Strings(m.labels)
	values := make([]string, len(m.labels))
	for i, k := range m.labels {
		values[i] = labels[k]
	}
	return seriesName(&m, values...)
}
