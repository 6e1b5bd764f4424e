package core

import (
	"fmt"
	"testing"
	"time"

	"peertrack/internal/ids"
	"peertrack/internal/moods"
)

// Alloc-pinning benchmarks and tests for the Scale.XL hot stores. The
// steady-state paths — updating an existing index record, looking one
// up, and annotating an IOP visit — must not allocate: at millions of
// objects per run, one allocation per operation is the difference
// between a flat heap and GC churn dominating the sweep.

func benchEntries(n int) []IndexEntry {
	out := make([]IndexEntry, n)
	for i := range out {
		obj := moods.ObjectID(fmt.Sprintf("bench-obj-%06d", i))
		out[i] = IndexEntry{
			Object:  obj,
			ID:      obj.Hash(),
			Latest:  "org-0001",
			Arrived: time.Duration(i) * time.Millisecond,
			Indexed: time.Duration(i) * time.Millisecond,
		}
	}
	return out
}

func BenchmarkGatewayUpsertUpdate(b *testing.B) {
	g := &gatewayStore{}
	pfx := ids.MustParsePrefix("0101")
	entries := benchEntries(4096)
	for _, e := range entries {
		g.upsert(pfx.Key(), e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := entries[i%len(entries)]
		e.Arrived += time.Second
		g.upsert(pfx.Key(), e)
	}
}

func BenchmarkGatewayUpsertInsert(b *testing.B) {
	// Fresh inserts grow the slab; cost must stay amortized-constant.
	g := &gatewayStore{}
	pfx := ids.MustParsePrefix("0101")
	entries := benchEntries(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.upsert(pfx.Key(), entries[i])
	}
}

func BenchmarkGatewayLookup(b *testing.B) {
	g := &gatewayStore{}
	pfx := ids.MustParsePrefix("0101")
	key := pfx.Key()
	entries := benchEntries(4096)
	for _, e := range entries {
		g.upsert(pfx.Key(), e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.lookup(key, entries[i%len(entries)].ID); !ok {
			b.Fatal("lookup missed")
		}
	}
}

func BenchmarkIOPRecordAppend(b *testing.B) {
	// Each op records a later visit for a rotating object set: the
	// per-object rest slice grows amortized, the map is not reshaped.
	s := newIOPStore(false)
	const objs = 1024
	names := make([]moods.ObjectID, objs)
	for i := range names {
		names[i] = moods.ObjectID(fmt.Sprintf("iop-obj-%04d", i))
		s.record(names[i], 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.record(names[i%objs], time.Duration(i+1)*time.Millisecond)
	}
}

func BenchmarkIOPSetTo(b *testing.B) {
	s := newIOPStore(false)
	const objs = 1024
	names := make([]moods.ObjectID, objs)
	for i := range names {
		names[i] = moods.ObjectID(fmt.Sprintf("iop-obj-%04d", i))
		s.record(names[i], time.Duration(i)*time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.setTo(names[i%objs], "org-0002", time.Hour)
	}
}

// TestGatewaySteadyStateAllocFree pins the zero-allocation contract of
// the index hot path: updating an existing record and looking it up
// must not allocate.
func TestGatewaySteadyStateAllocFree(t *testing.T) {
	g := &gatewayStore{}
	pfx := ids.MustParsePrefix("0101")
	key := pfx.Key()
	entries := benchEntries(512)
	for _, e := range entries {
		g.upsert(pfx.Key(), e)
	}
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		e := entries[i%len(entries)]
		e.Arrived += time.Second
		g.upsert(pfx.Key(), e)
		i++
	}); avg != 0 {
		t.Errorf("gateway upsert(update) allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		g.lookup(key, entries[i%len(entries)].ID)
		i++
	}); avg != 0 {
		t.Errorf("gateway lookup allocates %.1f/op, want 0", avg)
	}
}

// TestIOPSteadyStateAllocFree pins the zero-allocation contract of the
// IOP link-stitching path: setTo/setFrom on existing visits and the
// dwell-anchor scan must not allocate.
func TestIOPSteadyStateAllocFree(t *testing.T) {
	s := newIOPStore(false)
	const objs = 256
	names := make([]moods.ObjectID, objs)
	for i := range names {
		names[i] = moods.ObjectID(fmt.Sprintf("iop-obj-%04d", i))
		s.record(names[i], time.Duration(i)*time.Millisecond)
		s.record(names[i], time.Hour+time.Duration(i)*time.Millisecond)
	}
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		s.setTo(names[i%objs], "org-0002", 2*time.Hour)
		i++
	}); avg != 0 {
		t.Errorf("iop setTo allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		s.setFrom(names[i%objs], "org-0003", time.Duration(i%objs)*time.Millisecond)
		i++
	}); avg != 0 {
		t.Errorf("iop setFrom allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		s.arrivedAtOrBefore(names[i%objs], 2*time.Hour)
		i++
	}); avg != 0 {
		t.Errorf("iop arrivedAtOrBefore allocates %.1f/op, want 0", avg)
	}
}
