package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// CounterPoint is one counter's value at snapshot time.
type CounterPoint struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugePoint is one gauge's value at snapshot time.
type GaugePoint struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramPoint is one histogram's state at snapshot time. Counts has
// len(Bounds)+1 entries; the last is the overflow bucket.
type HistogramPoint struct {
	Name   string   `json:"name"`
	Bounds []int64  `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Sum    int64    `json:"sum"`
	Count  uint64   `json:"count"`
}

// Snapshot is a point-in-time copy of every instrument, sorted by name
// within each section so that deterministic runs produce DeepEqual- and
// byte-identical snapshots regardless of creation or scheduling order.
type Snapshot struct {
	Counters   []CounterPoint   `json:"counters,omitempty"`
	Gauges     []GaugePoint     `json:"gauges,omitempty"`
	Histograms []HistogramPoint `json:"histograms,omitempty"`
	Spans      uint64           `json:"spans"`
}

// Snapshot captures every instrument. Safe concurrently with updates
// (each value is read atomically; cross-instrument skew is possible on
// a live node, absent in the single-threaded sim). Empty on a nil
// registry.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	r.mu.RLock()
	for _, name := range sortedKeys(r.counters) {
		snap.Counters = append(snap.Counters, CounterPoint{Name: name, Value: r.counters[name].Value()})
	}
	for _, name := range sortedKeys(r.gauges) {
		snap.Gauges = append(snap.Gauges, GaugePoint{Name: name, Value: r.gauges[name].Value()})
	}
	for _, name := range sortedKeys(r.histograms) {
		h := r.histograms[name]
		pt := HistogramPoint{
			Name:   name,
			Bounds: append([]int64(nil), h.bounds...),
			Counts: make([]uint64, len(h.counts)),
			Sum:    h.sum.Load(),
		}
		for i := range h.counts {
			pt.Counts[i] = h.counts[i].Load()
			pt.Count += pt.Counts[i] // the count is the buckets read here, never apart from them
		}
		snap.Histograms = append(snap.Histograms, pt)
	}
	r.mu.RUnlock()
	snap.Spans = r.tracer.Total()
	return snap
}

// Merge combines two snapshots: counters, gauges, histogram buckets and
// span totals add pointwise by name. Histograms sharing a name must
// share bounds (they do when both sides come from identically
// instrumented runs); a mismatch panics rather than fabricating a
// distribution. Used by the chaos sweep to aggregate per-scenario
// registries in seed order, which is what makes the merged report
// independent of the worker count.
func (s Snapshot) Merge(other Snapshot) Snapshot {
	var out Snapshot
	cv := make(map[string]uint64)
	for _, c := range s.Counters {
		cv[c.Name] += c.Value
	}
	for _, c := range other.Counters {
		cv[c.Name] += c.Value
	}
	for _, name := range sortedKeys(cv) {
		out.Counters = append(out.Counters, CounterPoint{Name: name, Value: cv[name]})
	}
	gv := make(map[string]int64)
	for _, g := range s.Gauges {
		gv[g.Name] += g.Value
	}
	for _, g := range other.Gauges {
		gv[g.Name] += g.Value
	}
	for _, name := range sortedKeys(gv) {
		out.Gauges = append(out.Gauges, GaugePoint{Name: name, Value: gv[name]})
	}
	hv := make(map[string]HistogramPoint)
	for _, h := range append(append([]HistogramPoint(nil), s.Histograms...), other.Histograms...) {
		prev, ok := hv[h.Name]
		if !ok {
			hv[h.Name] = HistogramPoint{
				Name:   h.Name,
				Bounds: append([]int64(nil), h.Bounds...),
				Counts: append([]uint64(nil), h.Counts...),
				Sum:    h.Sum,
				Count:  h.Count,
			}
			continue
		}
		if len(prev.Bounds) != len(h.Bounds) {
			panic("telemetry: merge bounds mismatch: " + h.Name)
		}
		for i, b := range h.Bounds {
			if prev.Bounds[i] != b {
				panic("telemetry: merge bounds mismatch: " + h.Name)
			}
			prev.Counts[i] += h.Counts[i]
		}
		prev.Counts[len(h.Bounds)] += h.Counts[len(h.Bounds)]
		prev.Sum += h.Sum
		prev.Count += h.Count
		hv[h.Name] = prev
	}
	for _, name := range sortedKeys(hv) {
		out.Histograms = append(out.Histograms, hv[name])
	}
	out.Spans = s.Spans + other.Spans
	return out
}

// sortedKeys returns the names of m in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Text renders the snapshot as a deterministic plain-text exposition,
// one instrument per line, sections and names sorted:
//
//	counter transport.calls 1204
//	gauge core.window.buffered 0
//	histogram chord.lookup.hops count=96 sum=288 le0=1 le1=10 ... inf=0
//	spans 96
func (s Snapshot) Text() string {
	var b strings.Builder
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "counter %s %d\n", c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(&b, "gauge %s %d\n", g.Name, g.Value)
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(&b, "histogram %s count=%d sum=%d", h.Name, h.Count, h.Sum)
		for i, bound := range h.Bounds {
			fmt.Fprintf(&b, " le%d=%d", bound, h.Counts[i])
		}
		fmt.Fprintf(&b, " inf=%d\n", h.Counts[len(h.Bounds)])
	}
	fmt.Fprintf(&b, "spans %d\n", s.Spans)
	return b.String()
}
