package telemetry

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"peertrack/internal/ids"
)

// manualClock is a settable test clock.
type manualClock struct{ now time.Duration }

func (c *manualClock) Now() time.Duration { return c.now }

func TestCounterGaugeBasics(t *testing.T) {
	r := New(nil)
	c := r.Counter("a.calls")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.calls") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("a.buffered")
	g.Add(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	// Every handle chained off a nil registry must be a usable no-op.
	r.Counter("x").Inc()
	r.Gauge("x").Add(1)
	r.Histogram("x", HopBuckets()).Observe(3)
	sp := r.Tracer().Start(OpLocate, "obj")
	sp.Step("n1", NewNote("hop"))
	sp.Step("n2", NewNote("hop %d to %s")).Int(2).Str("n3")
	r.Tracer().StartPrefix(OpIndex, 0).Step("n1", NewNote("%b %t")).Prefix(0).Bool(true).Dur(0)
	sp.Finish(2, nil)
	if got := r.Tracer().Recent(5); got != nil {
		t.Fatalf("nil tracer Recent = %v, want nil", got)
	}
	if r.Now() != 0 {
		t.Fatal("nil registry clock should read zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 || snap.Spans != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
	if snap.Text() != "spans 0\n" {
		t.Fatalf("empty exposition = %q", snap.Text())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New(nil)
	h := r.Histogram("hops", []int64{1, 2, 4})
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %d, want 1", len(snap.Histograms))
	}
	pt := snap.Histograms[0]
	// ≤1: {0,1}  ≤2: {2}  ≤4: {3,4}  overflow: {5,100}
	want := []uint64{2, 1, 2, 2}
	if !reflect.DeepEqual(pt.Counts, want) {
		t.Fatalf("bucket counts = %v, want %v", pt.Counts, want)
	}
	if pt.Count != 7 || pt.Sum != 115 {
		t.Fatalf("count/sum = %d/%d, want 7/115", pt.Count, pt.Sum)
	}
}

// TestHistogramSnapshotCountIsBucketSum holds a snapshot taken during
// traffic (/metrics, Text on a live node) to one histogram: its count is
// the sum of the buckets it shows. A count kept and read apart from the
// buckets lags them whenever a writer lands between the two reads.
func TestHistogramSnapshotCountIsBucketSum(t *testing.T) {
	r := New(nil)
	h := r.Histogram("h", ByteBuckets())
	const writers, per = 4, 20000
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*per + i))
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()
	for snaps := 0; ; snaps++ {
		select {
		case <-done:
			if snaps == 0 {
				t.Log("the writers finished before the first snapshot")
			}
			if got := h.Count(); got != writers*per {
				t.Fatalf("count = %d after the writers, want %d", got, writers*per)
			}
			return
		default:
		}
		pt := r.Snapshot().Histograms[0]
		var sum uint64
		for _, c := range pt.Counts {
			sum += c
		}
		if pt.Count != sum {
			t.Fatalf("snapshot %d: count=%d, buckets sum to %d", snaps, pt.Count, sum)
		}
	}
}

func TestHistogramBoundsMismatchPanics(t *testing.T) {
	r := New(nil)
	r.Histogram("h", []int64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bounds mismatch")
		}
	}()
	r.Histogram("h", []int64{1, 3})
}

func TestTracerRingAndForKey(t *testing.T) {
	clk := &manualClock{}
	r := New(clk.Now)
	tr := r.Tracer()
	for i := 0; i < DefaultSpanCapacity+10; i++ {
		clk.now = time.Duration(i) * time.Millisecond
		sp := tr.Start(OpLocate, "obj")
		sp.Step("n1", NewNote("gateway"))
		sp.Finish(i, nil)
	}
	if got := tr.Total(); got != DefaultSpanCapacity+10 {
		t.Fatalf("total = %d, want %d", got, DefaultSpanCapacity+10)
	}
	recent := tr.Recent(3)
	if len(recent) != 3 {
		t.Fatalf("recent = %d spans, want 3", len(recent))
	}
	// Newest first, and the oldest entries were overwritten.
	if recent[0].Hops != DefaultSpanCapacity+9 || recent[2].Hops != DefaultSpanCapacity+7 {
		t.Fatalf("recent hops = %d,%d — ring order wrong", recent[0].Hops, recent[2].Hops)
	}
	if recent[0].Start != recent[0].End-0 && recent[0].Start == 0 {
		t.Fatalf("span did not take clock timestamps: %+v", recent[0])
	}

	failed := tr.Start(OpTrace, "other")
	failed.Finish(0, errors.New("boom"))
	byKey := tr.ForKey("other", 10)
	if len(byKey) != 1 || byKey[0].Err != "boom" {
		t.Fatalf("ForKey = %+v, want one failed span", byKey)
	}
	if s := byKey[0].String(); !strings.Contains(s, "err=boom") {
		t.Fatalf("String() = %q, want err rendered", s)
	}
}

func TestSnapshotTextDeterministic(t *testing.T) {
	build := func(order []string) string {
		r := New(nil)
		for _, name := range order {
			r.Counter(name).Add(3)
		}
		r.Gauge("g.b").Add(-2)
		r.Gauge("g.a").Add(9)
		r.Histogram("h.x", HopBuckets()).Observe(2)
		return r.Snapshot().Text()
	}
	a := build([]string{"c.z", "c.a", "c.m"})
	b := build([]string{"c.m", "c.z", "c.a"})
	if a != b {
		t.Fatalf("exposition depends on creation order:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "counter c.a 3\n") || strings.Index(a, "c.a") > strings.Index(a, "c.z") {
		t.Fatalf("exposition not sorted:\n%s", a)
	}
}

func TestSnapshotMerge(t *testing.T) {
	mk := func(calls uint64, hop int64) Snapshot {
		r := New(nil)
		r.Counter("t.calls").Add(calls)
		r.Gauge("t.buffered").Add(int64(calls))
		r.Histogram("t.hops", []int64{1, 2}).Observe(hop)
		r.Tracer().Start(OpLocate, "o").Finish(0, nil)
		return r.Snapshot()
	}
	m := mk(3, 1).Merge(mk(5, 100))
	if m.Counters[0].Value != 8 {
		t.Fatalf("merged counter = %d, want 8", m.Counters[0].Value)
	}
	if m.Gauges[0].Value != 8 {
		t.Fatalf("merged gauge = %d, want 8", m.Gauges[0].Value)
	}
	h := m.Histograms[0]
	if h.Count != 2 || h.Sum != 101 || !reflect.DeepEqual(h.Counts, []uint64{1, 0, 1}) {
		t.Fatalf("merged histogram wrong: %+v", h)
	}
	if m.Spans != 2 {
		t.Fatalf("merged spans = %d, want 2", m.Spans)
	}
	// Merging with a zero snapshot preserves values (sweep accumulator
	// starts from Snapshot{}).
	z := Snapshot{}.Merge(m)
	if !reflect.DeepEqual(z, m) {
		t.Fatalf("zero-merge changed snapshot:\n%+v\nvs\n%+v", z, m)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := New(nil)
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", HopBuckets())
	tr := r.Tracer()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i % 10))
				if i%100 == 0 {
					sp := tr.Start(Op(w%int(numOps)), "k")
					sp.Step("n", NewNote("s %d")).Int(i)
					sp.Finish(1, nil)
					tr.Recent(4)
				}
				// Exercise create-on-first-use races too.
				r.Counter("shared").Inc()
				_ = r.Snapshot()
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per {
		t.Fatalf("gauge = %d, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := New(nil)
	c := r.Counter("bench")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := New(nil)
	h := r.Histogram("bench", LatencyBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

var (
	noteBench  = NewNote("gateway: %d events from %s, %d unknown")
	noteBench2 = NewNote("gateway %b: hit, head at %s")
	group01101 = ids.KeyOf(ids.ID{0b01101000}, 5)
)

// recordSpan is the shape of one index arrival or locate: Start, four
// steps with every argument kind between them, Finish.
func recordSpan(tr *Tracer, steps int) {
	sp := tr.Start(OpLocate, "obj-17")
	for i := 0; i < steps; i += 2 {
		sp.Step("org-0001", noteBench).Int(3).Str("org-0002").Int(1)
		sp.Step("org-0002", noteBench2).Prefix(group01101).Str("org-0003")
	}
	sp.Finish(2, nil)
}

// TestSpanRecordAllocs pins the recording budget: a span allocates its
// recording until its op's share of the ring has wrapped, and nothing
// after — Start reuses what Finish evicted — nor does any step, nor
// anything when tracing is not wired; and the step record stays one cache
// line.
func TestSpanRecordAllocs(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got != 64 {
		t.Errorf("step record is %d bytes, want 64", got)
	}
	tr := New(nil).Tracer()
	if avg := testing.AllocsPerRun(DefaultSpanCapacity/int(numOps)-1, func() { recordSpan(tr, inlineSteps) }); avg > 1 {
		t.Errorf("a span allocates %.1f before its ring wraps, want ≤ 1", avg)
	}
	for op := range numOps {
		for i := 0; i < DefaultSpanCapacity; i++ {
			tr.Start(op, "warm").Finish(0, nil)
		}
	}
	for name, fn := range map[string]func(){
		"bare span":         func() { recordSpan(tr, 0) },
		"span with steps":   func() { recordSpan(tr, inlineSteps) },
		"prefix-keyed span": func() { tr.StartPrefix(OpIndex, group01101).Finish(1, nil) },
		"nil tracer":        func() { recordSpan(nil, inlineSteps) },
	} {
		if avg := testing.AllocsPerRun(200, fn); avg != 0 {
			t.Errorf("%s allocates %.1f once the ring has wrapped, want 0", name, avg)
		}
	}
	// A trace's dozen steps spill: once the ring holds only such spans,
	// each evicted one hands its grown slice to the next Start.
	for i := 0; i < DefaultSpanCapacity/int(numOps); i++ {
		recordSpan(tr, 12)
	}
	if avg := testing.AllocsPerRun(200, func() { recordSpan(tr, 12) }); avg != 0 {
		t.Errorf("span with 12 steps allocates %.1f once the ring has wrapped, want 0", avg)
	}
}

// TestSpilledStepsAreKeptClean: a recording evicted after a span that
// spilled keeps its step slice, zeroed, and the span that reuses it holds
// and renders only its own steps; a slice grown past maxPooledSteps is
// dropped, not pooled.
func TestSpilledStepsAreKeptClean(t *testing.T) {
	tr := newTracer(New(nil), int(numOps)) // one slot an op: each Finish evicts the op's last span
	note := NewNote("step %d of %s")
	long := func(op Op, steps int) *Recording {
		sp := tr.Start(op, "long")
		for j := 0; j < steps; j++ {
			sp.Step("n", note).Int(j).Str("long")
		}
		sp.Finish(steps, nil)
		return sp
	}
	zeroed := func(s *Recording) bool {
		return !slices.ContainsFunc(s.steps[:cap(s.steps)], func(r record) bool { return r != record{} })
	}

	kept := long(OpTrace, 12)
	long(OpTrace, 1) // evicts kept
	if len(kept.steps) != 0 || cap(kept.steps) < 12 || !zeroed(kept) {
		t.Errorf("evicted 12-step recording holds %d steps of %d, zeroed %t; want 0 of ≥ 12, zeroed", len(kept.steps), cap(kept.steps), zeroed(kept))
	}
	big := long(OpTrace, maxPooledSteps+1)
	long(OpTrace, 1)
	if big.steps != nil {
		t.Errorf("evicted %d-step recording kept a slice of %d", maxPooledSteps+1, cap(big.steps))
	}

	// Locates reuse what each trace evicts: the trace slot's last span is
	// a spilled one by the time the next trace finishes.
	spilled, reused := map[*Recording]bool{}, 0
	for i := 0; i < 100; i++ {
		spilled[long(OpTrace, 12)] = true
		key := fmt.Sprintf("short-%d", i)
		sp := tr.Start(OpLocate, key)
		if spilled[sp] {
			reused++
			if len(sp.steps) != 0 || cap(sp.steps) <= inlineSteps {
				t.Fatalf("a reused recording starts with %d steps of %d, want 0 of its spilled slice", len(sp.steps), cap(sp.steps))
			}
		}
		sp.Step("m", note).Int(i).Str(key)
		sp.Finish(1, nil)
		got := tr.ForKey(key, 1)
		if len(got) != 1 || len(got[0].Steps) != 1 || got[0].Steps[0].Note != fmt.Sprintf("step %d of %s", i, key) {
			t.Fatalf("span %s read back as %+v, want its one step", key, got)
		}
	}
	if reused == 0 {
		t.Error("no locate reused a spilled recording")
	}
}

// TestReadersRaceWriters runs Recent and ForKey beside Start and Finish
// (under -race in `make race` and CI's repeated concurrency step): a
// reader renders a recording while no Finish can evict and reuse it, so
// every span it returns is whole — each of its steps, spilled past the
// inline array and kept for reuse, names its own key.
func TestReadersRaceWriters(t *testing.T) {
	tr := New(nil).Tracer()
	note := NewNote("span %s")
	const steps = 6
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("w%d-%d", w, i%7)
				sp := tr.Start(Op(i%int(numOps)), key)
				for range steps {
					sp.Step("n", note).Str(key)
				}
				sp.Finish(i, nil)
			}
		}(w)
	}
	check := func(spans []Span) {
		for _, s := range spans {
			if len(s.Steps) != steps || slices.ContainsFunc(s.Steps, func(st Step) bool { return st.Note != "span "+s.Key }) {
				t.Errorf("span %q read with steps %+v", s.Key, s.Steps)
			}
		}
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				check(tr.Recent(16))
				check(tr.ForKey(fmt.Sprintf("w%d-%d", r, i%7), 4))
			}
		}(r)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}

// TestDroppedRegistryIsCollected: the pool of evicted recordings is
// shared by every tracer and holds only zeroed ones, so nothing global
// keeps a dropped registry — or, in a simulation, the network its clock
// reads — alive past the next collection. A pool inside the Tracer would:
// the runtime keeps a pool reachable for two collections after its last
// use. The finalizer sits on what the clock reads, not on the registry,
// which is in a cycle with its tracer (a finalizer in a cycle never runs).
// Every other span spills, with node names that live in the network: the
// step slices the pool keeps must hold none of them.
func TestDroppedRegistryIsCollected(t *testing.T) {
	collected := make(chan struct{})
	note := NewNote("spilled")
	func() {
		network := new([32]byte)
		runtime.SetFinalizer(network, func(*[32]byte) { close(collected) })
		r := New(func() time.Duration { return time.Duration(network[0]) })
		node := unsafe.String(&network[0], len(network))
		for i := 0; i < 2*DefaultSpanCapacity; i++ {
			sp := r.Tracer().Start(Op(i%int(numOps)), "k")
			for j := 0; j < (i%2)*2*inlineSteps; j++ {
				sp.Step(node, note)
			}
			sp.Finish(0, nil) // wraps the ring: Finish evicts
		}
	}()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Fatal("what a dropped registry's clock reads survived a collection")
	}
}

// TestIndexSpansDoNotEvictQuerySpans: on an ingesting node index spans
// outnumber query spans by orders of magnitude; the one locate must
// still be there when the operator asks for it.
func TestIndexSpansDoNotEvictQuerySpans(t *testing.T) {
	tr := New(nil).Tracer()
	flood := func() {
		for i := 0; i < 10000; i++ {
			tr.StartPrefix(OpIndex, group01101).Finish(1, nil)
		}
	}
	flood()
	sp := tr.Start(OpLocate, "obj-17")
	sp.Step("org-0002", noteBench2).Prefix(group01101).Str("org-0003")
	sp.Finish(1, nil)
	flood()

	got := tr.ForKey("obj-17", 1)
	if len(got) != 1 || got[0].Op != "locate" || len(got[0].Steps) != 1 ||
		got[0].Steps[0].Note != "gateway 01101: hit, head at org-0003" {
		t.Fatalf("ForKey after 10000 index spans = %+v, want the locate with its step", got)
	}
	if byPrefix := tr.ForKey("01101", 3); len(byPrefix) != 3 || byPrefix[0].Op != "index" {
		t.Errorf("ForKey by group prefix = %+v, want the three newest index spans", byPrefix)
	}
	if tr.Total() != 20001 {
		t.Errorf("total = %d, want 20001", tr.Total())
	}
	// Recent merges the op shares newest first: 128 index spans finished
	// after the locate, so it sits right behind them.
	recent := tr.Recent(DefaultSpanCapacity)
	if share := DefaultSpanCapacity / int(numOps); len(recent) != share+1 || recent[share].Op != "locate" || recent[0].ID != 20001 {
		t.Errorf("Recent = %d spans, want %d index spans then the locate", len(recent), share)
	}
}

func BenchmarkSpanRecord(b *testing.B) {
	tr := New(nil).Tracer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		recordSpan(tr, inlineSteps)
	}
}

func BenchmarkSpanRender(b *testing.B) {
	tr := New(nil).Tracer()
	recordSpan(tr, inlineSteps)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Recent(1)
	}
}
