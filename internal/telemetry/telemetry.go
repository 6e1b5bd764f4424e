// Package telemetry is the runtime observability layer: sharded
// counters and gauges, bounded-bucket histograms, and a per-query span
// tracer, all hanging off a Registry.
//
// Two properties shape every type here:
//
//   - Determinism. All timestamps come from an injected clock
//     (func() time.Duration), so the same registry code runs on the sim
//     kernel's virtual clock inside experiments/chaos and on the wall
//     clock inside a live trackd. The package itself never reads
//     time.Now, and Snapshot emits in sorted name order, so two
//     deterministic runs produce byte-identical expositions regardless
//     of goroutine scheduling or worker counts.
//
//   - Nil safety. Every handle ((*Registry)(nil), (*Counter)(nil), a
//     nil *Recording, ...) is a valid no-op, so instrumented code paths
//     never branch on "is telemetry wired?" and uninstrumented runs pay
//     only a nil check. Counter/Gauge/Histogram updates are
//     allocation-free; a span reuses a recording its ring evicted, so
//     once the ring has wrapped a span and its steps allocate nothing.
//
// Instrument names are dotted lowercase paths, owner first:
// "transport.calls", "chord.lookup.hops", "core.window.flushes".
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Clock supplies timestamps as offsets from an arbitrary epoch — the
// sim kernel's Now in deterministic runs, time.Since(startup) on a live
// node. A nil Clock reads as zero, which keeps span timestamps and
// latency histograms inert rather than invalid.
type Clock func() time.Duration

// Registry owns a flat namespace of instruments plus one span tracer.
// Instruments are created on first use and live for the registry's
// lifetime; lookups after creation are a read-lock and a map hit, so
// callers on hot paths should still cache the returned handle.
type Registry struct {
	clock Clock

	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram

	tracer *Tracer
}

// DefaultSpanCapacity is the span ring size used by New.
const DefaultSpanCapacity = 512

// New builds a registry on the given clock (nil reads as zero).
func New(clock Clock) *Registry {
	r := &Registry{
		clock:      clock,
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
	r.tracer = newTracer(r, DefaultSpanCapacity)
	return r
}

// Now reads the registry clock. Zero on a nil registry or clock.
func (r *Registry) Now() time.Duration {
	if r == nil || r.clock == nil {
		return 0
	}
	return r.clock()
}

// Counter returns the named counter, creating it on first use. Nil on a
// nil registry — and a nil *Counter is itself a valid no-op handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Tracer returns the registry's span tracer (nil on a nil registry; a
// nil *Tracer is a valid no-op).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// shards is the fan-out for counters and gauges. Like the transport
// stats shards, each slot is padded to its own cache line so concurrent
// writers don't false-share; 16 covers the worker counts the sweep
// runners use.
const shards = 16

type counterShard struct {
	v atomic.Uint64
	_ [56]byte
}

type gaugeShard struct {
	v atomic.Int64
	_ [56]byte
}

// shardHint picks a shard from the caller's stack address — stable
// within a goroutine's lifetime, roughly uniform across goroutines, and
// free of any per-CPU or random state, so it cannot perturb determinism
// (only the per-shard split varies; every read sums all shards).
func shardHint() int {
	var marker byte
	return int(uintptr(unsafe.Pointer(&marker)) >> 10 % shards)
}

// Counter is a monotonically increasing sharded counter.
type Counter struct {
	shards [shards]counterShard
}

// Inc adds one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d. No-op on a nil counter.
func (c *Counter) Add(d uint64) {
	if c == nil {
		return
	}
	c.shards[shardHint()].v.Add(d)
}

// Value sums the shards.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var total uint64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// Gauge is a sharded signed up/down instrument (e.g. "observations
// currently buffered in open windows").
type Gauge struct {
	shards [shards]gaugeShard
}

// Add moves the gauge by d. No-op on a nil gauge.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.shards[shardHint()].v.Add(d)
}

// Value sums the shards.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	var total int64
	for i := range g.shards {
		total += g.shards[i].v.Load()
	}
	return total
}
