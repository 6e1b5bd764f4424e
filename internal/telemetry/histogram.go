package telemetry

import "sync/atomic"

// Histogram counts observations into fixed buckets defined by ascending
// inclusive upper bounds, plus an implicit overflow (+inf) bucket. The
// bounds are fixed at creation and few (7–9 in every standard layout),
// so observation is a linear scan that small values leave at the first
// bound, and two atomic adds — no allocation, no locks. The count is
// the sum of the buckets, so no reader can see the two disagree.
type Histogram struct {
	bounds []int64
	counts []atomic.Uint64 // len(bounds)+1; last is overflow
	sum    atomic.Int64
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use. Bounds must be strictly ascending; a later
// lookup with different bounds panics, because two call sites silently
// disagreeing on a bucket layout would corrupt the exposition.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h == nil {
		r.mu.Lock()
		if h = r.histograms[name]; h == nil {
			for i := 1; i < len(bounds); i++ {
				if bounds[i] <= bounds[i-1] {
					r.mu.Unlock()
					panic("telemetry: histogram bounds not ascending: " + name)
				}
			}
			h = &Histogram{
				bounds: append([]int64(nil), bounds...),
				counts: make([]atomic.Uint64, len(bounds)+1),
			}
			r.histograms[name] = h
		}
		r.mu.Unlock()
	}
	if len(h.bounds) != len(bounds) {
		panic("telemetry: histogram bounds mismatch: " + name)
	}
	for i, b := range bounds {
		if h.bounds[i] != b {
			panic("telemetry: histogram bounds mismatch: " + name)
		}
	}
	return h
}

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Count is the number of observations so far.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// HopBuckets is the standard bucket layout for hop-count distributions
// (lookups, locates, IOP walks). Returned fresh so callers can't alias
// a shared slice.
func HopBuckets() []int64 {
	return []int64{0, 1, 2, 4, 8, 16, 32, 64}
}

// LatencyBuckets is the standard layout for call latencies in
// nanoseconds, from 100µs up to 5s. On the sim kernel's virtual clock
// synchronous calls take zero time and land in the first bucket; the
// layout only spreads out on a live node.
func LatencyBuckets() []int64 {
	return []int64{
		100_000, 1_000_000, 5_000_000, 10_000_000, 50_000_000,
		100_000_000, 500_000_000, 1_000_000_000, 5_000_000_000,
	}
}

// ByteBuckets is the standard layout for message/payload sizes.
func ByteBuckets() []int64 {
	return []int64{64, 256, 1024, 4096, 16384, 65536, 262144}
}

// GroupBuckets is the standard layout for per-flush group counts and
// other small cardinalities.
func GroupBuckets() []int64 {
	return []int64{0, 1, 2, 4, 8, 16, 32, 64, 128}
}
