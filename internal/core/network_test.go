package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"peertrack/internal/ids"
	"peertrack/internal/moods"
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
	slot.first.From = nw.Peers()[9].Name()
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
