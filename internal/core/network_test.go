package core

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"

	"peertrack/internal/ids"
	"peertrack/internal/moods"
	"peertrack/internal/workload"
)

func TestNetworkDefaults(t *testing.T) {
	nw, err := BuildNetwork(NetworkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if nw.Size() != 8 {
		t.Errorf("default size = %d", nw.Size())
	}
	if nw.HopLatency != 5*time.Millisecond {
		t.Errorf("default hop latency = %v", nw.HopLatency)
	}
	if nw.QueryTime(10) != 50*time.Millisecond {
		t.Errorf("query time = %v", nw.QueryTime(10))
	}
	if nw.PM.Scheme() != Scheme2 {
		t.Errorf("default scheme = %v", nw.PM.Scheme())
	}
}

func TestNetworkPeerByName(t *testing.T) {
	nw := buildNet(t, 6, Config{})
	name := NodeNameFor(3)
	p, ok := nw.PeerByName(name)
	if !ok || p.Name() != name {
		t.Fatalf("PeerByName(%s) = %v, %v", name, p, ok)
	}
	if _, ok := nw.PeerByName("ghost"); ok {
		t.Error("found nonexistent peer")
	}
}

func TestScheduleObservationUnknownNode(t *testing.T) {
	nw := buildNet(t, 4, Config{})
	err := nw.ScheduleObservation(moods.Observation{Object: "o", Node: "ghost", At: time.Second})
	if err == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestStartWindowsCadence(t *testing.T) {
	nw, err := BuildNetwork(NetworkConfig{Nodes: 4, Seed: 1, TInterval: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// One observation per 500ms window, five windows.
	for i := 0; i < 5; i++ {
		nw.ScheduleObservation(moods.Observation{
			Object: moods.ObjectID(fmt.Sprintf("w-%d", i)),
			Node:   nw.Peers()[0].Name(),
			At:     time.Duration(i)*500*time.Millisecond + 100*time.Millisecond,
		})
	}
	nw.StartWindows(3 * time.Second)
	nw.Run()
	// Peer 0 is the only observer, so every flush counted is its own.
	if flushes := nw.Telemetry.Counter("core.window.flushes").Value(); flushes != 5 {
		t.Fatalf("flushes = %d, want 5 (one per window)", flushes)
	}
}

func TestOracleRecordsEverything(t *testing.T) {
	nw := buildNet(t, 6, Config{})
	for i := 0; i < 30; i++ {
		nw.ScheduleObservation(moods.Observation{
			Object: moods.ObjectID(fmt.Sprintf("or-%d", i%10)),
			Node:   nw.Peers()[i%6].Name(),
			At:     time.Duration(i) * time.Second,
		})
	}
	nw.Run()
	if nw.Oracle.Len() != 30 {
		t.Errorf("oracle len = %d", nw.Oracle.Len())
	}
	if nw.Oracle.Objects() != 10 {
		t.Errorf("oracle objects = %d", nw.Oracle.Objects())
	}
}

func TestBrokenIOPChainReported(t *testing.T) {
	// Corrupt a from-pointer to a node that never saw the object: the
	// walk must fail with a diagnostic, not loop or panic.
	nw := buildNet(t, 10, Config{Mode: GroupIndexing})
	obj := moods.ObjectID("broken")
	moveObject(t, nw, obj, []int{1, 4, 7}, time.Second, time.Minute)
	nw.StartWindows(5 * time.Minute)
	nw.Run()

	// Corrupt: node 4's visit gets a From pointing at an uninvolved node.
	p4 := nw.Peers()[4]
	p4.repo.mu.Lock()
	slot := p4.repo.visits[obj]
	slot.first.From = p4.repo.names.ref(nw.Peers()[9].Name())
	p4.repo.visits[obj] = slot
	p4.repo.mu.Unlock()

	_, err := nw.Peers()[0].FullTrace(obj)
	if err == nil {
		t.Fatal("trace over corrupted chain succeeded")
	}
}

func TestLocateAnswersFromIndexWithoutWalk(t *testing.T) {
	// L(o, now) needs only the gateway entry: hops must be small and
	// constant regardless of trace length.
	nw := buildNet(t, 16, Config{Mode: GroupIndexing})
	obj := moods.ObjectID("cheap-locate")
	trace := []int{0, 2, 4, 6, 8, 10, 12, 14, 1, 3}
	moveObject(t, nw, obj, trace, time.Second, time.Minute)
	nw.StartWindows(15 * time.Minute)
	nw.Run()

	res, err := nw.Peers()[5].Locate(obj, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hops > 3 {
		t.Fatalf("locate-now hops = %d, want O(1) with gateway cache", res.Hops)
	}
}

func TestTraceHopsProportionalToTraceLength(t *testing.T) {
	nw := buildNet(t, 20, Config{Mode: GroupIndexing})
	short := moods.ObjectID("short-trace")
	long := moods.ObjectID("long-trace")
	moveObject(t, nw, short, []int{0, 1}, time.Second, time.Minute)
	moveObject(t, nw, long, []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, time.Second, time.Minute)
	nw.StartWindows(15 * time.Minute)
	nw.Run()

	rs, err := nw.Peers()[15].FullTrace(short)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := nw.Peers()[15].FullTrace(long)
	if err != nil {
		t.Fatal(err)
	}
	if rl.Hops <= rs.Hops {
		t.Fatalf("long trace %d hops <= short trace %d hops", rl.Hops, rs.Hops)
	}
	// The difference should be about the extra walk steps (8), not a
	// factor of ring size.
	if rl.Hops-rs.Hops < 6 || rl.Hops-rs.Hops > 12 {
		t.Fatalf("hop delta = %d, want ≈8", rl.Hops-rs.Hops)
	}
}

func TestIndexingFailuresSurfaceInStats(t *testing.T) {
	nw := buildNet(t, 8, Config{Mode: GroupIndexing})
	// Kill the node that owns some group's gateway id (not the observer
	// itself), then index: writes to that group can never be delivered,
	// so they must surface as failures and stay buffered for retry.
	observer := nw.Peers()[0]
	lp := observer.pm.Lp()
	var gw *Peer
	for i := 0; i < 100 && gw == nil; i++ {
		obj := moods.ObjectID(fmt.Sprintf("ff-%d", i))
		gwid := ids.PrefixOf(obj.Hash(), lp).GatewayID()
		for _, p := range nw.Peers() {
			if p != observer && p.node.Owns(gwid) {
				gw = p
				break
			}
		}
	}
	if gw == nil {
		t.Fatal("no group gateway found among other peers")
	}
	nw.Transport.Kill(gw.Addr())
	for i := 0; i < 100; i++ {
		nw.ScheduleObservation(moods.Observation{
			Object: moods.ObjectID(fmt.Sprintf("ff-%d", i)),
			Node:   nw.Peers()[0].Name(),
			At:     time.Second,
		})
	}
	nw.StartWindows(2 * time.Second)
	nw.Run()
	if nw.Stats().Snapshot().Failures == 0 {
		t.Error("no transport failures recorded despite a dead gateway")
	}
	// The events for unreachable gateways are retained for retry.
	if nw.Peers()[0].Buffered() == 0 {
		t.Error("failed groups were not re-buffered")
	}
}

func TestUntrackedVsErrorDistinguishable(t *testing.T) {
	nw := buildNet(t, 8, Config{Mode: GroupIndexing})
	_, err := nw.Peers()[0].Locate("ghost", time.Hour)
	if !errors.Is(err, ErrNotTracked) {
		t.Fatalf("err = %v", err)
	}
}

func TestShrinkMigratesIndexAndMerges(t *testing.T) {
	// Build a 64-node network, index objects whose observations live
	// only on the surviving quarter, then shrink to 16 nodes — Lp drops
	// and every index record must survive the migration + merge.
	nw := buildNet(t, 64, Config{Mode: GroupIndexing})
	objs := make([]moods.ObjectID, 30)
	for i := range objs {
		objs[i] = moods.ObjectID(fmt.Sprintf("sh-%d", i))
		// Trajectories confined to peers 0..15 (the survivors).
		moveObject(t, nw, objs[i], []int{i % 16, (i + 5) % 16}, time.Second, time.Minute)
	}
	nw.StartWindows(3 * time.Minute)
	nw.Run()

	oldLp, newLp, err := nw.Shrink(48)
	if err != nil {
		t.Fatal(err)
	}
	if newLp >= oldLp {
		t.Fatalf("Lp did not shrink: %d -> %d", oldLp, newLp)
	}
	if nw.Size() != 16 {
		t.Fatalf("size after shrink = %d", nw.Size())
	}
	for _, obj := range objs {
		res, err := nw.Peers()[3].FullTrace(obj)
		if err != nil {
			t.Fatalf("trace %s after shrink: %v", obj, err)
		}
		assertPathsEqual(t, res.Path, nw.Oracle.FullTrace(obj), "post-shrink")
	}
	// New observations keep working at the smaller Lp.
	obj := objs[0]
	p := nw.Peers()[9]
	at := nw.Kernel.Now() + time.Second
	nw.Oracle.Record(moods.Observation{Object: obj, Node: p.Name(), At: at})
	nw.Kernel.At(at, func() {
		p.Observe(moods.Observation{Object: obj, Node: p.Name(), At: at})
	})
	nw.Kernel.Run()
	nw.FlushAll()
	res, err := nw.Peers()[0].FullTrace(obj)
	if err != nil {
		t.Fatal(err)
	}
	assertPathsEqual(t, res.Path, nw.Oracle.FullTrace(obj), "post-shrink new movement")
}

func TestShrinkValidation(t *testing.T) {
	nw := buildNet(t, 4, Config{})
	if _, _, err := nw.Shrink(0); err == nil {
		t.Error("shrink(0) accepted")
	}
	if _, _, err := nw.Shrink(4); err == nil {
		t.Error("shrink(all) accepted")
	}
}

// tiedWorkload is a small workload whose placements fall within 20 ns of
// each other, so most of them tie on capture time across nodes — the case
// in which only slice order decides execution order.
func tiedWorkload(t *testing.T, nodes int) []moods.Observation {
	t.Helper()
	wl, err := workload.PaperSpec{
		Nodes: nodeNames(nodes), ObjectsPerNode: 12, MoveFraction: 0.25, TraceLen: 4, Grouped: true, Seed: 7,
		Spread: 20 * time.Nanosecond, HopGap: 5 * time.Second,
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return wl.Observations
}

// executed schedules onto a fresh network, steps the kernel one event at
// a time and returns the observations in the order the peers received
// them (windows never flush: NMax is out of reach and no window timer
// runs), plus the network for its oracle.
func executed(t *testing.T, nodes int, schedule func(nw *Network) error) ([]moods.Observation, *Network) {
	t.Helper()
	nw := buildNet(t, nodes, Config{Mode: GroupIndexing, NMax: 1 << 30})
	if err := schedule(nw); err != nil {
		t.Fatal(err)
	}
	var order []moods.Observation
	for nw.Kernel.Step() {
		for _, p := range nw.Peers() {
			if n := len(p.window); n > 0 && p.window[n-1] != (moods.Observation{}) {
				order = append(order, p.window[n-1])
				p.window[n-1] = moods.Observation{} // seen
			}
		}
	}
	return order, nw
}

func eachObservation(obss []moods.Observation) func(nw *Network) error {
	return func(nw *Network) error {
		for _, o := range obss {
			if err := nw.ScheduleObservation(o); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestScheduleAllKeepsOrderAndOracle: a sorted slice scheduled as it
// stands, the same observations shuffled, and one ScheduleObservation
// call each all execute in the same order — capture time, ties in slice
// order — and leave the same oracle.
func TestScheduleAllKeepsOrderAndOracle(t *testing.T) {
	const nodes = 8
	sorted := tiedWorkload(t, nodes)
	ties := 0
	for i := 1; i < len(sorted); i++ {
		if sorted[i].At == sorted[i-1].At && sorted[i].Node != sorted[i-1].Node {
			ties++
		}
	}
	if ties < 10 {
		t.Fatalf("workload has %d cross-node ties, too few to test tie order", ties)
	}
	// Shuffle, then put observations of equal capture time back in their
	// relative order, so that a stable sort of the shuffle is the sorted
	// slice and every schedule below must agree event for event.
	shuffled := slices.Clone(sorted)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	raw := slices.Clone(shuffled) // ties left in shuffled order
	queue := map[time.Duration][]moods.Observation{}
	for _, o := range sorted {
		queue[o.At] = append(queue[o.At], o)
	}
	for i, o := range shuffled {
		shuffled[i], queue[o.At] = queue[o.At][0], queue[o.At][1:]
	}
	if slices.IsSortedFunc(shuffled, func(a, b moods.Observation) int { return cmp.Compare(a.At, b.At) }) {
		t.Fatal("the shuffle left the input sorted")
	}

	want, ref := executed(t, nodes, eachObservation(sorted))
	if !slices.Equal(want, sorted) {
		t.Fatal("per-observation scheduling of a sorted slice does not execute in slice order")
	}
	for name, schedule := range map[string]func(*Network) error{
		"ScheduleAll(sorted)":           func(nw *Network) error { return nw.ScheduleAll(sorted) },
		"ScheduleAll(shuffled)":         func(nw *Network) error { return nw.ScheduleAll(shuffled) },
		"ScheduleObservation(shuffled)": eachObservation(shuffled),
	} {
		got, nw := executed(t, nodes, schedule)
		if !slices.Equal(got, want) {
			t.Errorf("%s: execution order differs from per-observation scheduling of the sorted slice", name)
		}
		for _, o := range sorted {
			if !nw.Oracle.FullTrace(o.Object).Equal(ref.Oracle.FullTrace(o.Object)) {
				t.Fatalf("%s: oracle history of %s differs", name, o.Object)
			}
		}
	}
	// With ties left where the shuffle put them, slice order breaks them
	// the same way for the batch and for one call per observation.
	batch, _ := executed(t, nodes, func(nw *Network) error { return nw.ScheduleAll(raw) })
	single, _ := executed(t, nodes, eachObservation(raw))
	if !slices.Equal(batch, single) || slices.Equal(batch, want) {
		t.Error("ScheduleAll breaks ties differently from per-observation scheduling")
	}
}

// TestScheduleAllDoesNotCopySortedInput: scheduling a sorted slice
// allocates the lane (its times, the closure) but no second copy of the
// observations; unsorted input is cloned, and the caller's slice is left
// as it was.
func TestScheduleAllDoesNotCopySortedInput(t *testing.T) {
	sorted := tiedWorkload(t, 8)
	nw, err := BuildNetwork(NetworkConfig{Nodes: 8, Seed: 1, NoOracle: true})
	if err != nil {
		t.Fatal(err)
	}
	perObs := func(obss []moods.Observation) (allocs, bytes float64) {
		allocs = testing.AllocsPerRun(10, func() {
			if err := nw.ScheduleAll(obss); err != nil {
				t.Fatal(err)
			}
		})
		_, bytes = mallocsDuring(func() { nw.ScheduleAll(obss) })
		return allocs, bytes / float64(len(obss))
	}
	allocs, bytes := perObs(sorted)
	t.Logf("sorted: %.0f allocations, %.1f bytes per observation", allocs, bytes)
	const obsSize = float64(unsafe.Sizeof(moods.Observation{}))
	if allocs > 6 || bytes >= obsSize/2 {
		t.Errorf("ScheduleAll(sorted) makes %.0f allocations and %.1f bytes per observation; want ≤ 6 and well under the %v of a copy", allocs, bytes, obsSize)
	}
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	before := slices.Clone(reversed)
	if _, bytes := perObs(reversed); bytes < obsSize {
		t.Errorf("ScheduleAll(unsorted) allocated %.1f bytes per observation: it cannot have sorted a copy", bytes)
	}
	if !slices.Equal(reversed, before) {
		t.Error("ScheduleAll sorted the caller's slice in place")
	}
}
