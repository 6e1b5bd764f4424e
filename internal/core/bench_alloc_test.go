package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"peertrack/internal/ids"
	"peertrack/internal/moods"
	"peertrack/internal/transport"
	"peertrack/internal/workload"
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
	g := newGatewayStore(new(nameTable), false)
	pfx := mustKey("0101")
	entries := benchEntries(4096)
	for _, e := range entries {
		g.upsert(pfx, e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := entries[i%len(entries)]
		e.Arrived += time.Second
		g.upsert(pfx, e)
	}
}

func BenchmarkGatewayUpsertInsert(b *testing.B) {
	// Fresh inserts grow the slab; cost must stay amortized-constant.
	g := newGatewayStore(new(nameTable), false)
	pfx := mustKey("0101")
	entries := benchEntries(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.upsert(pfx, entries[i])
	}
}

func BenchmarkGatewayLookup(b *testing.B) {
	g := newGatewayStore(new(nameTable), false)
	pfx := mustKey("0101")
	key := pfx
	entries := benchEntries(4096)
	for _, e := range entries {
		g.upsert(pfx, e)
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
	s := newIOPStore(new(nameTable), false)
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
	s := newIOPStore(new(nameTable), false)
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
// the index hot path: updating an existing record, looking it up and
// advancing its IOP head must not allocate.
func TestGatewaySteadyStateAllocFree(t *testing.T) {
	g := newGatewayStore(new(nameTable), false)
	pfx := mustKey("0101")
	key := pfx
	entries := benchEntries(512)
	for _, e := range entries {
		g.upsert(pfx, e)
	}
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		e := entries[i%len(entries)]
		e.Arrived += time.Second
		g.upsert(pfx, e)
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
	if avg := testing.AllocsPerRun(200, func() {
		e := entries[i%len(entries)]
		e.Arrived += time.Duration(i) * time.Hour // later than the head: the arrival becomes it
		if i&1 == 1 {
			e.Latest = "org-0002"
		}
		if _, move := g.advance(key, e, nil); move != headMoved && move != headSame {
			t.Fatalf("advance = %v, want the head replaced", move)
		}
		i++
	}); avg != 0 {
		t.Errorf("gateway advance allocates %.1f/op, want 0", avg)
	}
}

// TestIOPSteadyStateAllocFree pins the zero-allocation contract of the
// IOP link-stitching path: setTo (which also finds the dwell anchor) and
// setFrom on existing visits must not allocate.
func TestIOPSteadyStateAllocFree(t *testing.T) {
	s := newIOPStore(new(nameTable), false)
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
}

// TestFlushWindowAllocs pins what a window flush costs the reporter
// itself, the gateways behind transport.Memory being stubs: a warm peer
// — its window array reused, every gateway resolution cached — flushing
// k groups allocates the (key, position) pairs, the event array and one
// boxed request per group, with one spare: at most 3 + k.
func TestFlushWindowAllocs(t *testing.T) {
	nw := buildNet(t, 32, Config{Mode: GroupIndexing})
	reporter := nw.Peers()[0]
	lp := nw.PM.Lp()
	var objs []moods.ObjectID // one per group, none of whose gateway is the reporter
	seen := map[ids.PrefixKey]bool{}
	for i := 0; len(objs) < 64; i++ {
		obj := moods.ObjectID(fmt.Sprintf("flush-%d", i))
		key := ids.KeyOf(obj.Hash(), lp)
		if gw, err := reporter.resolveGateway(key); err != nil {
			t.Fatal(err)
		} else if !seen[key] && gw != reporter.Addr() {
			seen[key] = true
			objs = append(objs, obj)
		}
	}
	for _, p := range nw.Peers()[1:] {
		nw.Transport.Register(p.Addr(), func(transport.Addr, any) (any, error) { return groupArriveResp{}, nil })
	}
	flush := func(k int, at time.Duration) float64 {
		for _, obj := range objs[:k] {
			if err := reporter.Observe(moods.Observation{Object: obj, At: at}); err != nil {
				t.Fatal(err)
			}
		}
		n, _ := mallocsDuring(func() {
			if err := reporter.FlushWindow(); err != nil {
				t.Fatal(err)
			}
		})
		return n
	}
	// MemStats counts what every goroutine and thread allocates, not the
	// flush alone. So flushes are counted on one P, as testing.AllocsPerRun
	// counts, where restarting the world after ReadMemStats starts no
	// thread (an m and its g are heap objects), and with the collector
	// off, so that no cycle wakes the runtime's goroutines that allocate
	// (since go1.23 the unique package's map cleanup).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, k := range []int{1, 8, 64} {
		flush(64, 0) // warm: the window array has room for every group
		worst := 0.0
		for i := 1; i <= 20; i++ {
			worst = max(worst, flush(k, time.Duration(i)*time.Second))
		}
		t.Logf("flushing %d groups: %.0f allocations", k, worst)
		if worst > float64(3+k) {
			t.Errorf("flushing %d groups allocates %.0f, want ≤ %d", k, worst, 3+k)
		}
	}
}

// nodeNames are the names BuildNetwork gives the peers of an n-node network.
func nodeNames(n int) []moods.NodeName {
	names := make([]moods.NodeName, n)
	for i := range names {
		names[i] = NodeNameFor(i)
	}
	return names
}

// simPaperShaped builds the repository benchmark's sim-paper workload
// (Section V: a tenth of each node's objects travel a ten-node route,
// grouped, Scheme 2) at the given size, scheduled and ready to Run.
func simPaperShaped(t testing.TB, nodes, perNode int) (*Network, workload.Result) {
	t.Helper()
	wl, err := workload.PaperSpec{
		Nodes: nodeNames(nodes), ObjectsPerNode: perNode, MoveFraction: 0.10, TraceLen: 10, Grouped: true, Seed: 1,
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	nw, err := BuildNetwork(NetworkConfig{Nodes: nodes, Seed: 1, Scheme: Scheme2, Peer: Config{Mode: GroupIndexing}})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.ScheduleAll(wl.Observations); err != nil {
		t.Fatal(err)
	}
	nw.StartWindows(wl.Horizon + 2*time.Second)
	return nw, wl
}

// raceDetector reports that the tests were built with -race (race_test.go).
var raceDetector bool

// mallocsDuring reports the heap objects and bytes allocated by fn.
func mallocsDuring(fn func()) (objects, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// TestSimPaperShapedAllocs pins what one observation costs end to end
// through Network.Run — window grouping, the group-index arrival with
// its span, M2/M3 stitching, transport accounting — and what one IOP hop
// of a FullTrace costs. It is the allocation budget of the path every
// figure, chaos sweep and the sim-paper benchmark run. This network
// measures 3.81 allocations and 549 bytes per observation (3.92 and 571
// while five stores kept Go maps; 3.88 and 779
// while the stores kept node names as strings and an observation
// carried a receptor; 5.05 and 835 while chord boxed every
// closest-preceding answer anew; 9.55 and 1456 while a flush grouped
// through a map, a pinned gateway looked every event up twice and a
// span allocated its recording), and 3.30 allocations a hop and 2 093
// bytes a trace (3.82 and 3 782 while a walked path grew from nil and a
// span regrew its spilled steps). The ceilings are 571 bytes, 3.30 and
// 2 093 plus 5 %; the allocation count's is still 3.88's, 4.07. Under
// -race sync.Pool drops a quarter of what is put back, so a quarter of
// the spans allocate their recording and regrow their steps again (4.05
// and 639–641 bytes an observation, 3.35–3.36 and 2 484–2 529 a trace):
// the race build gets that on top.
func TestSimPaperShapedAllocs(t *testing.T) {
	nw, wl := simPaperShaped(t, 32, 200)
	objects, bytes := mallocsDuring(nw.Run)
	obs := float64(len(wl.Observations))
	t.Logf("Run: %.2f allocs and %.0f bytes per observation (%d observations)", objects/obs, bytes/obs, len(wl.Observations))
	maxObjects, maxBytes := 4.07, 600.0
	if raceDetector {
		maxObjects, maxBytes = maxObjects+0.25, maxBytes+100
	}
	if objects/obs > maxObjects {
		t.Errorf("Run allocates %.2f objects per observation, want ≤ %.2f", objects/obs, maxObjects)
	}
	if bytes/obs > maxBytes {
		t.Errorf("Run allocates %.0f bytes per observation, want ≤ %.0f", bytes/obs, maxBytes)
	}

	hops := 0
	objects, bytes = mallocsDuring(func() {
		for i, obj := range wl.Movers {
			res, err := nw.Peers()[i%len(nw.Peers())].FullTrace(obj)
			if err != nil {
				t.Fatal(err)
			}
			hops += res.Hops
		}
	})
	traces := float64(len(wl.Movers))
	t.Logf("FullTrace: %.2f allocs per hop, %.1f and %.0f bytes per trace (%d traces, %d hops)", objects/float64(hops), objects/traces, bytes/traces, len(wl.Movers), hops)
	maxPerHop, maxTraceBytes := 3.47, 2200.0
	if raceDetector {
		maxPerHop, maxTraceBytes = maxPerHop+0.1, maxTraceBytes+600
	}
	if perHop := objects / float64(hops); perHop > maxPerHop {
		t.Errorf("FullTrace allocates %.2f objects per hop, want ≤ %.2f", perHop, maxPerHop)
	}
	if bytes/traces > maxTraceBytes {
		t.Errorf("FullTrace allocates %.0f bytes per trace, want ≤ %.0f", bytes/traces, maxTraceBytes)
	}
}

// TestSimPaperLoadAllocs pins what the load costs before Run — generate,
// build, schedule — in allocations per observation. The workload's
// slices, the sort's keys and the oracle's slab and index are a few
// hundred allocations however many observations there are, the network
// a few dozen a node: 0.069 here, 0.072–0.073 under -race. The ceiling
// is 0.075, the race build's reading while the oracle indexed by a map,
// plus 5 %. An id string per object and a
// history append per observation read 1.85. The test also holds
// ScheduleAll to its word that the oracle is complete when it returns.
func TestSimPaperLoadAllocs(t *testing.T) {
	var nw *Network
	var wl workload.Result
	objects, _ := mallocsDuring(func() { nw, wl = simPaperShaped(t, 32, 200) })
	obs := float64(len(wl.Observations))
	t.Logf("load: %.3f allocs per observation (%d observations)", objects/obs, len(wl.Observations))
	if objects/obs > 0.078 {
		t.Errorf("load allocates %.3f objects per observation, want ≤ 0.078", objects/obs)
	}
	if nw.Oracle.Len() != len(wl.Observations) {
		t.Errorf("the oracle holds %d of %d observations when ScheduleAll returns", nw.Oracle.Len(), len(wl.Observations))
	}
}

// TestSimPaperRetainedBytes pins what a network keeps per observation
// once it has run: the heap in use after a collection, less the same
// before the load, with the network and its workload alive. It is what
// sets sim-paper's peak_rss_mb (the collector's goal is twice the live
// heap) and how far a run scales. The stores name nodes by 4-byte refs
// into each peer's nameTable, keep their entries in arenas indexed by a
// probe.Table rather than in maps, the repository's slot is 40 bytes
// with its key, the oracle keeps (node, time) and an observation is 40
// bytes: 286 bytes an observation here, 287–290 under -race, and the
// ceiling is 288 plus 3 %.
func TestSimPaperRetainedBytes(t *testing.T) {
	before := heapAfterGC()
	nw, wl := simPaperShaped(t, 32, 200)
	nw.Run()
	kept := float64(heapAfterGC()-before) / float64(len(wl.Observations))
	runtime.KeepAlive(nw)
	runtime.KeepAlive(wl)
	t.Logf("Run keeps %.0f bytes per observation (%d observations)", kept, len(wl.Observations))
	if kept > 297 {
		t.Errorf("a run keeps %.0f bytes per observation, want ≤ 297", kept)
	}
}

// TestXLBuildBytesPerNode pins what a node costs past the paper's 512:
// the heap in use after a collection, less the same before, for an
// oracle-free 20 000-node build. The build holds no records, so this is
// a peer's fixed cost: its chord node, finger table and empty stores.
// It reads 2 295 bytes a node here, under -race too, and the ceiling is
// 2 265 plus 10 %. Build throughput is logged, not gated: on
// a shared VM one tree reads more than 10 % apart from run to run.
func TestXLBuildBytesPerNode(t *testing.T) {
	const nodes = 20000
	before := heapAfterGC()
	start := time.Now()
	nw, err := BuildNetwork(NetworkConfig{Nodes: nodes, Seed: 1, NoOracle: true})
	if err != nil {
		t.Fatal(err)
	}
	secs := time.Since(start).Seconds()
	perNode := float64(heapAfterGC()-before) / nodes
	runtime.KeepAlive(nw)
	t.Logf("a %d-node build keeps %.0f bytes per node, %.0f nodes/s", nodes, perNode, nodes/secs)
	if perNode > 2491 {
		t.Errorf("a %d-node build keeps %.0f bytes per node, want ≤ 2491", nodes, perNode)
	}
}

// heapAfterGC reports the bytes of live heap objects after a collection.
func heapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// BenchmarkSimPaperLoad, BenchmarkSimPaperRun and BenchmarkSimPaperTrace
// are the phases of the sim-paper benchmark at its size (128 nodes, 500
// objects each) — setup_s (generate, build, schedule), the timed Run and
// the timed queries — for profiling without the benchmark module
// (`make profile-sim`, whose pattern leaves the full sub-benchmarks out).
//
// Load/full and Run/full are the paper's own largest point, 512 nodes ×
// 5 000 objects (4.86 M observations: about a gigabyte loaded, 2.2–2.3
// GB peak RSS for the run), run by hand and by name, and skipped under
// -short:
//
//	go test ./internal/core -run xxx -bench 'SimPaper(Load|Run)/full' -benchtime 1x
//
// Each but Load/128x500 also reports the heap in use after its phase
// and a collection. Run/128x500 keeps its last network in ranNetwork,
// alive when the test binary writes -memprofile: that profile's
// inuse_space is what a run keeps (make profile-sim's run-heap.pprof).
func BenchmarkSimPaperLoad(b *testing.B) {
	b.Run("128x500", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			simPaperShaped(b, 128, 500)
		}
	})
	b.Run("full", func(b *testing.B) {
		skipFull(b)
		for i := 0; i < b.N; i++ {
			nw, _ := simPaperShaped(b, 512, 5000)
			reportHeap(b)
			runtime.KeepAlive(nw)
		}
	})
}

func BenchmarkSimPaperRun(b *testing.B) {
	b.Run("128x500", func(b *testing.B) {
		ranNetwork = nil // not alive through this call's runs
		ranNetwork = runSimPaper(b, 128, 500)
		reportHeap(b)
	})
	b.Run("full", func(b *testing.B) {
		skipFull(b)
		nw := runSimPaper(b, 512, 5000)
		reportHeap(b)
		runtime.KeepAlive(nw)
	})
}

// ranNetwork is the last network BenchmarkSimPaperRun/128x500 ran.
var ranNetwork *Network

// runSimPaper times Run alone on b.N fresh networks and returns the last
// with the timer stopped.
func runSimPaper(b *testing.B, nodes, perNode int) *Network {
	b.ReportAllocs()
	var nw *Network
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nw, _ = simPaperShaped(b, nodes, perNode)
		b.StartTimer()
		nw.Run()
	}
	b.StopTimer()
	return nw
}

func skipFull(b *testing.B) {
	if testing.Short() {
		b.Skip("gigabytes")
	}
}

// reportHeap reports the heap in use after a collection.
func reportHeap(b *testing.B) {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	b.ReportMetric(float64(m.HeapInuse)/(1<<20), "heap-inuse-MB")
}

// BenchmarkSimPaperTrace times one FullTrace as sim-paper's
// latency_p50_us does: a mover and the peer that asks, each drawn from a
// seeded rng. It wants thousands of traces (`make micro` runs 20 000);
// at -benchtime 3x it times cold starts.
func BenchmarkSimPaperTrace(b *testing.B) {
	nw, wl := simPaperShaped(b, 128, 500)
	nw.Run()
	peers := nw.Peers()
	rng := rand.New(rand.NewSource(13))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj := wl.Movers[rng.Intn(len(wl.Movers))]
		if _, err := peers[rng.Intn(len(peers))].FullTrace(obj); err != nil {
			b.Fatal(err)
		}
	}
}
