package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"peertrack/internal/moods"
)

// buildNet constructs a small converged network for tests.
func buildNet(t testing.TB, nodes int, peerCfg Config) *Network {
	t.Helper()
	nw, err := BuildNetwork(NetworkConfig{
		Nodes: nodes,
		Seed:  1,
		Peer:  peerCfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// lp is the Lp every peer of a simulated network holds.
func (nw *Network) lp() int { return nw.peers[0].pm.Lp() }

// moveObject schedules a trajectory: the object is captured at each
// node in sequence, spaced by gap.
func moveObject(t testing.TB, nw *Network, obj moods.ObjectID, trace []int, start, gap time.Duration) {
	t.Helper()
	for i, nodeIdx := range trace {
		obs := moods.Observation{
			Object: obj,
			Node:   nw.Peers()[nodeIdx].Name(),
			At:     start + time.Duration(i)*gap,
		}
		if err := nw.ScheduleObservation(obs); err != nil {
			t.Fatal(err)
		}
	}
}

func pathNodes(p moods.Path) []moods.NodeName { return p.Nodes() }

// assertRingOrder: Peers() lists the peers in ring order, so Shrink(k)
// takes a ring segment whatever joined before it.
func assertRingOrder(t *testing.T, nw *Network, what string) {
	t.Helper()
	ps := nw.Peers()
	for i := 1; i < len(ps); i++ {
		if !ps[i-1].Node().ID().Less(ps[i].Node().ID()) {
			t.Fatalf("%s: Peers()[%d] %s is not before [%d] %s in ring order", what, i-1, ps[i-1].Addr(), i, ps[i].Addr())
		}
	}
}

func assertPathsEqual(t *testing.T, got, want moods.Path, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: path %v, want %v", what, pathNodes(got), pathNodes(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: path %v, want %v", what, got, want)
		}
	}
}

func TestIndividualIndexingSingleObject(t *testing.T) {
	nw := buildNet(t, 16, Config{Mode: IndividualIndexing})
	obj := moods.ObjectID("urn:epc:id:sgtin:0614141.812345.1")
	moveObject(t, nw, obj, []int{2, 7, 11}, time.Second, time.Minute)
	nw.Run()

	// IOP links at each visited node.
	p2, p7, p11 := nw.Peers()[2], nw.Peers()[7], nw.Peers()[11]
	v2, ok := p2.repo.get(obj)
	if !ok || len(v2) != 1 {
		t.Fatalf("node 2 visits = %v", v2)
	}
	if v2[0].From != "" || v2[0].To != p7.Name() {
		t.Errorf("node2 IOP = %+v, want from=\"\" to=%s", v2[0], p7.Name())
	}
	v7, _ := p7.repo.get(obj)
	if v7[0].From != p2.Name() || v7[0].To != p11.Name() {
		t.Errorf("node7 IOP = %+v", v7[0])
	}
	v11, _ := p11.repo.get(obj)
	if v11[0].From != p7.Name() || v11[0].To != "" {
		t.Errorf("node11 IOP = %+v", v11[0])
	}

	// Full trace from an uninvolved peer matches the oracle.
	res, err := nw.Peers()[0].FullTrace(obj)
	if err != nil {
		t.Fatal(err)
	}
	assertPathsEqual(t, res.Path, nw.Oracle.FullTrace(obj), "full trace")
	if res.Hops <= 0 {
		t.Error("trace cost zero hops from remote peer")
	}
}

func TestIndividualLocate(t *testing.T) {
	nw := buildNet(t, 16, Config{Mode: IndividualIndexing})
	obj := moods.ObjectID("obj-locate")
	moveObject(t, nw, obj, []int{1, 5, 9}, time.Second, time.Minute)
	nw.Run()

	cases := []struct {
		at   time.Duration
		want moods.NodeName
	}{
		{0, moods.Nowhere},
		{time.Second, nw.Peers()[1].Name()},
		{30 * time.Second, nw.Peers()[1].Name()},
		{time.Second + time.Minute, nw.Peers()[5].Name()},
		{time.Second + 90*time.Second, nw.Peers()[5].Name()},
		{time.Hour, nw.Peers()[9].Name()},
	}
	for _, c := range cases {
		res, err := nw.Peers()[3].Locate(obj, c.at)
		if err != nil {
			t.Fatalf("Locate at %v: %v", c.at, err)
		}
		if res.Node != c.want {
			t.Errorf("L(o, %v) = %q, want %q", c.at, res.Node, c.want)
		}
		// Cross-check the oracle.
		want, _ := nw.Oracle.Locate(obj, c.at)
		if res.Node != want {
			t.Errorf("oracle disagrees at %v: got %q oracle %q", c.at, res.Node, want)
		}
	}
}

func TestUntrackedObject(t *testing.T) {
	nw := buildNet(t, 8, Config{Mode: IndividualIndexing})
	_, err := nw.Peers()[0].FullTrace("ghost")
	if !errors.Is(err, ErrNotTracked) {
		t.Fatalf("err = %v, want ErrNotTracked", err)
	}
	nwG := buildNet(t, 8, Config{Mode: GroupIndexing})
	_, err = nwG.Peers()[0].FullTrace("ghost")
	if !errors.Is(err, ErrNotTracked) {
		t.Fatalf("group err = %v, want ErrNotTracked", err)
	}
}

func TestGroupIndexingSingleObject(t *testing.T) {
	nw := buildNet(t, 16, Config{Mode: GroupIndexing})
	obj := moods.ObjectID("urn:epc:id:sgtin:0614141.812345.2")
	moveObject(t, nw, obj, []int{3, 8, 14, 5}, time.Second, time.Minute)
	nw.StartWindows(10 * time.Minute)
	nw.Run()

	res, err := nw.Peers()[1].FullTrace(obj)
	if err != nil {
		t.Fatal(err)
	}
	assertPathsEqual(t, res.Path, nw.Oracle.FullTrace(obj), "group full trace")
}

func TestGroupIndexingManyObjects(t *testing.T) {
	nw := buildNet(t, 24, Config{Mode: GroupIndexing})
	r := rand.New(rand.NewSource(42))
	objs := make([]moods.ObjectID, 60)
	for i := range objs {
		objs[i] = moods.ObjectID(fmt.Sprintf("urn:epc:id:sgtin:0614141.812345.%d", i))
		// Random trajectory of 2-6 hops.
		hops := 2 + r.Intn(5)
		trace := make([]int, hops)
		for j := range trace {
			trace[j] = r.Intn(24)
			if j > 0 && trace[j] == trace[j-1] {
				trace[j] = (trace[j] + 1) % 24
			}
		}
		moveObject(t, nw, objs[i], trace, time.Duration(1+r.Intn(5))*time.Second, time.Duration(30+r.Intn(60))*time.Second)
	}
	nw.StartWindows(20 * time.Minute)
	nw.Run()

	for _, obj := range objs {
		res, err := nw.Peers()[0].FullTrace(obj)
		if err != nil {
			t.Fatalf("trace %s: %v", obj, err)
		}
		assertPathsEqual(t, res.Path, nw.Oracle.FullTrace(obj), string(obj))
	}
}

func TestGroupLocateMatchesOracleRandomTimes(t *testing.T) {
	nw := buildNet(t, 16, Config{Mode: GroupIndexing})
	r := rand.New(rand.NewSource(7))
	objs := make([]moods.ObjectID, 30)
	for i := range objs {
		objs[i] = moods.ObjectID(fmt.Sprintf("o%d", i))
		trace := []int{r.Intn(16), r.Intn(16), r.Intn(16)}
		for j := 1; j < 3; j++ {
			if trace[j] == trace[j-1] {
				trace[j] = (trace[j] + 3) % 16
			}
		}
		moveObject(t, nw, objs[i], trace, time.Duration(1+r.Intn(10))*time.Second, time.Duration(1+r.Intn(3))*time.Minute)
	}
	nw.StartWindows(15 * time.Minute)
	nw.Run()

	for q := 0; q < 200; q++ {
		obj := objs[r.Intn(len(objs))]
		at := time.Duration(r.Intn(900)) * time.Second
		res, err := nw.Peers()[r.Intn(16)].Locate(obj, at)
		if err != nil {
			t.Fatalf("Locate(%s, %v): %v", obj, at, err)
		}
		want, _ := nw.Oracle.Locate(obj, at)
		if res.Node != want {
			t.Fatalf("L(%s, %v) = %q, oracle %q", obj, at, res.Node, want)
		}
	}
}

func TestTraceWindowed(t *testing.T) {
	nw := buildNet(t, 12, Config{Mode: GroupIndexing})
	obj := moods.ObjectID("windowed")
	// Visits at 60s, 120s, 180s, 240s, 300s.
	moveObject(t, nw, obj, []int{0, 2, 4, 6, 8}, time.Minute, time.Minute)
	nw.StartWindows(10 * time.Minute)
	nw.Run()

	// Window [150s, 250s]: occupied node at 150s is node 2 (arrived
	// 120s); then 180s (node 4) and 240s (node 6).
	res, err := nw.Peers()[1].Trace(obj, 150*time.Second, 250*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	oracle, _ := nw.Oracle.Trace(obj, 150*time.Second, 250*time.Second)
	assertPathsEqual(t, res.Path, oracle, "windowed trace")
	if len(res.Path) != 3 {
		t.Fatalf("windowed trace = %v", pathNodes(res.Path))
	}
}

func TestSameTickWindowFlushOrdering(t *testing.T) {
	// An object moves n5 -> n2 within one window interval; peer 2
	// flushes before peer 5 in ring order, so the gateway sees the
	// newer arrival first and must stitch the late event behind it.
	nw := buildNet(t, 8, Config{Mode: GroupIndexing})
	obj := moods.ObjectID("same-tick")
	nw.ScheduleObservation(moods.Observation{Object: obj, Node: nw.Peers()[5].Name(), At: 100 * time.Millisecond})
	nw.ScheduleObservation(moods.Observation{Object: obj, Node: nw.Peers()[2].Name(), At: 200 * time.Millisecond})
	nw.StartWindows(2 * time.Second) // both captures inside the first window
	nw.Run()

	res, err := nw.Peers()[0].FullTrace(obj)
	if err != nil {
		t.Fatal(err)
	}
	assertPathsEqual(t, res.Path, nw.Oracle.FullTrace(obj), "same-tick trace")
}

func TestRevisitSameNode(t *testing.T) {
	nw := buildNet(t, 10, Config{Mode: GroupIndexing})
	obj := moods.ObjectID("boomerang")
	// n1 -> n4 -> n1 -> n7: revisits node 1.
	moveObject(t, nw, obj, []int{1, 4, 1, 7}, time.Second, time.Minute)
	nw.StartWindows(10 * time.Minute)
	nw.Run()

	res, err := nw.Peers()[3].FullTrace(obj)
	if err != nil {
		t.Fatal(err)
	}
	assertPathsEqual(t, res.Path, nw.Oracle.FullTrace(obj), "revisit trace")
	if len(res.Path) != 4 {
		t.Fatalf("revisit path = %v", pathNodes(res.Path))
	}
}

func TestStationaryRepeatedReads(t *testing.T) {
	// The same object read twice at the same node must not corrupt the
	// chain.
	nw := buildNet(t, 8, Config{Mode: IndividualIndexing})
	obj := moods.ObjectID("stationary")
	moveObject(t, nw, obj, []int{3, 3, 5}, time.Second, time.Minute)
	nw.Run()
	res, err := nw.Peers()[0].FullTrace(obj)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle records 3 observations; P2P trace collapses the repeated
	// read into the same visit chain — accept either 2 or 3 stops but
	// the node sequence must be 3 -> 5 after dedup.
	nodes := pathNodes(res.Path)
	if nodes[0] != nw.Peers()[3].Name() || nodes[len(nodes)-1] != nw.Peers()[5].Name() {
		t.Fatalf("stationary path = %v", nodes)
	}
}

func TestGroupIndexingCheaperThanIndividual(t *testing.T) {
	run := func(mode Mode) uint64 {
		nw := buildNet(t, 32, Config{Mode: mode})
		r := rand.New(rand.NewSource(3))
		// 512 objects arrive at node 0 within one second, then move to
		// node 1 a minute later — bulk arrivals, the group-indexing
		// sweet spot.
		for i := 0; i < 512; i++ {
			obj := moods.ObjectID(fmt.Sprintf("bulk-%d", i))
			at := time.Duration(r.Intn(1000)) * time.Millisecond
			nw.ScheduleObservation(moods.Observation{Object: obj, Node: nw.Peers()[0].Name(), At: at})
			nw.ScheduleObservation(moods.Observation{Object: obj, Node: nw.Peers()[1].Name(), At: time.Minute + at})
		}
		if mode == GroupIndexing {
			nw.StartWindows(2 * time.Minute)
		}
		nw.Run()
		return nw.Stats().Snapshot().Messages
	}
	ind := run(IndividualIndexing)
	grp := run(GroupIndexing)
	if grp*2 >= ind {
		t.Fatalf("group indexing not ≥2x cheaper: group=%d individual=%d", grp, ind)
	}
}

func TestDelegationAndTriangleLookup(t *testing.T) {
	nw := buildNet(t, 8, Config{
		Mode:                GroupIndexing,
		DelegationThreshold: 8,
		DelegationAlpha:     0.5,
	})
	// With 8 nodes, Lp = ceil(log2 8 + log2 log2 8) = ceil(3+1.58) = 5?
	// Whatever it is, flood enough objects that buckets overflow.
	r := rand.New(rand.NewSource(5))
	var objs []moods.ObjectID
	for i := 0; i < 800; i++ {
		obj := moods.ObjectID(fmt.Sprintf("flood-%d", i))
		objs = append(objs, obj)
		at := time.Duration(r.Intn(4000)) * time.Millisecond
		nw.ScheduleObservation(moods.Observation{Object: obj, Node: nw.Peers()[r.Intn(8)].Name(), At: at})
	}
	nw.StartWindows(5 * time.Second)
	nw.Run()

	// Delegation must have fired somewhere.
	delegatedSomewhere := false
	for _, p := range nw.Peers() {
		p.gw.mu.Lock()
		for _, b := range p.gw.buckets {
			if b.delegated {
				delegatedSomewhere = true
			}
		}
		p.gw.mu.Unlock()
	}
	if !delegatedSomewhere {
		t.Fatal("no bucket ever delegated; threshold not exercised")
	}

	// Every object must still be findable (triangle descent).
	for _, obj := range objs {
		if _, _, err := nw.Peers()[0].findIndex(obj, nil); err != nil {
			t.Fatalf("findIndex(%s) after delegation: %v", obj, err)
		}
	}
}

func TestLpGrowthRefreshFromAscent(t *testing.T) {
	nw := buildNet(t, 16, Config{Mode: GroupIndexing})
	obj := moods.ObjectID("grows")
	// Index at Lp(16).
	nw.ScheduleObservation(moods.Observation{Object: obj, Node: nw.Peers()[2].Name(), At: time.Second})
	nw.StartWindows(2 * time.Second)
	nw.Run()

	// The network "grows": Lp increases by 2 without reconciliation, so
	// the old record sits at a shorter (ancestor) prefix gateway.
	oldLp, newLp := nw.resize(float64(16 * 8))
	if newLp <= oldLp {
		t.Fatalf("Lp did not grow: %d -> %d", oldLp, newLp)
	}
	for _, p := range nw.Peers() {
		p.InvalidateGatewayCache()
	}

	// The object moves; the new gateway must refresh from ascent to
	// learn the previous location.
	nw.Kernel.At(time.Minute, func() {
		nw.Peers()[9].Observe(moods.Observation{Object: obj, Node: nw.Peers()[9].Name(), At: time.Minute})
	})
	nw.Oracle.Record(moods.Observation{Object: obj, Node: nw.Peers()[9].Name(), At: time.Minute})
	nw.Kernel.Run()
	nw.FlushAll()

	res, err := nw.Peers()[0].FullTrace(obj)
	if err != nil {
		t.Fatal(err)
	}
	assertPathsEqual(t, res.Path, nw.Oracle.FullTrace(obj), "post-growth trace")
}

func TestLpShrinkRefreshFromDescent(t *testing.T) {
	nw := buildNet(t, 64, Config{Mode: GroupIndexing})
	obj := moods.ObjectID("shrinks")
	nw.ScheduleObservation(moods.Observation{Object: obj, Node: nw.Peers()[2].Name(), At: time.Second})
	nw.StartWindows(2 * time.Second)
	nw.Run()

	// Lp decreases by one: the old record now sits at a child (longer)
	// prefix; the new gateway must refresh from descent.
	oldLp := nw.lp()
	for nn := 63.0; nn > 2; nn-- {
		if _, newLp := nw.resize(nn); newLp == oldLp-1 {
			break
		}
	}
	if nw.lp() != oldLp-1 {
		t.Fatalf("could not arrange Lp decrease by one (lp=%d old=%d)", nw.lp(), oldLp)
	}
	for _, p := range nw.Peers() {
		p.InvalidateGatewayCache()
	}

	nw.Kernel.At(time.Minute, func() {
		nw.Peers()[30].Observe(moods.Observation{Object: obj, Node: nw.Peers()[30].Name(), At: time.Minute})
	})
	nw.Oracle.Record(moods.Observation{Object: obj, Node: nw.Peers()[30].Name(), At: time.Minute})
	nw.Kernel.Run()
	nw.FlushAll()

	res, err := nw.Peers()[5].FullTrace(obj)
	if err != nil {
		t.Fatal(err)
	}
	assertPathsEqual(t, res.Path, nw.Oracle.FullTrace(obj), "post-shrink trace")
}

func TestGrowReconcileKeepsQueriesCorrect(t *testing.T) {
	nw := buildNet(t, 16, Config{Mode: GroupIndexing})
	r := rand.New(rand.NewSource(11))
	objs := make([]moods.ObjectID, 40)
	for i := range objs {
		objs[i] = moods.ObjectID(fmt.Sprintf("pre-%d", i))
		trace := []int{r.Intn(16), r.Intn(16)}
		if trace[1] == trace[0] {
			trace[1] = (trace[1] + 1) % 16
		}
		moveObject(t, nw, objs[i], trace, time.Second, time.Minute)
	}
	nw.StartWindows(3 * time.Minute)
	nw.Run()

	oldLp, newLp, err := nw.Grow(48) // 16 -> 64 nodes
	if err != nil {
		t.Fatal(err)
	}
	if newLp <= oldLp {
		t.Fatalf("Lp did not grow on 4x size: %d -> %d", oldLp, newLp)
	}
	assertRingOrder(t, nw, "after grow")

	// All existing objects still traceable from old and new peers.
	for _, obj := range objs {
		res, err := nw.Peers()[60].FullTrace(obj)
		if err != nil {
			t.Fatalf("trace %s after grow: %v", obj, err)
		}
		assertPathsEqual(t, res.Path, nw.Oracle.FullTrace(obj), "post-grow")
	}

	// And new observations keep working.
	obj := objs[0]
	newPeer := nw.Peers()[55]
	nw.Kernel.At(nw.Kernel.Now()+time.Second, func() {
		newPeer.Observe(moods.Observation{Object: obj, Node: newPeer.Name(), At: nw.Kernel.Now()})
	})
	nw.Oracle.Record(moods.Observation{Object: obj, Node: newPeer.Name(), At: nw.Kernel.Now() + time.Second})
	nw.Kernel.Run()
	nw.FlushAll()
	res, err := nw.Peers()[0].FullTrace(obj)
	if err != nil {
		t.Fatal(err)
	}
	assertPathsEqual(t, res.Path, nw.Oracle.FullTrace(obj), "post-grow new movement")
}

func TestRoutedTraceMatchesIterative(t *testing.T) {
	for _, mode := range []Mode{IndividualIndexing, GroupIndexing} {
		nw := buildNet(t, 24, Config{Mode: mode})
		obj := moods.ObjectID("routed")
		moveObject(t, nw, obj, []int{4, 9, 17}, time.Second, time.Minute)
		if mode == GroupIndexing {
			nw.StartWindows(5 * time.Minute)
		}
		nw.Run()

		iter, err := nw.Peers()[0].FullTrace(obj)
		if err != nil {
			t.Fatal(err)
		}
		routed, err := nw.Peers()[0].TraceRouted(obj)
		if err != nil {
			t.Fatal(err)
		}
		assertPathsEqual(t, routed.Path, iter.Path, fmt.Sprintf("routed vs iterative (mode %d)", mode))
	}
}

func TestRoutedTraceIntermediateShortCircuit(t *testing.T) {
	nw := buildNet(t, 16, Config{Mode: GroupIndexing})
	obj := moods.ObjectID("short-circuit")
	moveObject(t, nw, obj, []int{3, 7, 12}, time.Second, time.Minute)
	nw.StartWindows(5 * time.Minute)
	nw.Run()

	// Querying from a node on the object's path answers locally with
	// zero forwarding.
	res, err := nw.Peers()[7].TraceRouted(obj)
	if err != nil {
		t.Fatal(err)
	}
	assertPathsEqual(t, res.Path, nw.Oracle.FullTrace(obj), "intermediate answer")
	if !res.Intermediate {
		t.Error("expected intermediate-node short circuit")
	}
}

// TestLongTraceMatchesOracle walks a trace far longer than a walked
// path's first allocation: one object through 40 nodes, back to the
// fifth, then three more. Every query form — iterative, windowed, routed
// from a stop (a backward walk extended forwards) and from elsewhere —
// must return the oracle's path.
func TestLongTraceMatchesOracle(t *testing.T) {
	nw := buildNet(t, 48, Config{Mode: GroupIndexing})
	obj := moods.ObjectID("long-haul")
	var route []int
	for i := 1; i <= 40; i++ {
		route = append(route, i)
	}
	route = append(route, 5, 41, 42, 43)
	moveObject(t, nw, obj, route, time.Second, time.Minute)
	nw.StartWindows(time.Duration(len(route)+5) * time.Minute)
	nw.Run()

	want := nw.Oracle.FullTrace(obj)
	if len(want) != len(route) {
		t.Fatalf("oracle holds %d stops, want %d", len(want), len(route))
	}
	stop, away := nw.Peers()[5], nw.Peers()[47]
	for _, p := range []*Peer{stop, away} {
		res, err := p.FullTrace(obj)
		if err != nil {
			t.Fatal(err)
		}
		assertPathsEqual(t, res.Path, want, "full trace from "+string(p.Name()))

		t1, t2 := want[2].Arrived+30*time.Second, want[38].Arrived+10*time.Second
		res, err = p.Trace(obj, t1, t2)
		if err != nil {
			t.Fatal(err)
		}
		window, _ := nw.Oracle.Trace(obj, t1, t2)
		assertPathsEqual(t, res.Path, window, "windowed trace from "+string(p.Name()))

		res, err = p.TraceRouted(obj)
		if err != nil {
			t.Fatal(err)
		}
		assertPathsEqual(t, res.Path, want, "routed trace from "+string(p.Name()))
	}
}

func TestWindowNMaxAutoFlush(t *testing.T) {
	nw, err := BuildNetwork(NetworkConfig{
		Nodes: 8,
		Seed:  1,
		Peer:  Config{Mode: GroupIndexing, NMax: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := nw.Peers()[0]
	for i := 0; i < 12; i++ {
		p.Observe(moods.Observation{Object: moods.ObjectID(fmt.Sprintf("nm-%d", i)), At: time.Second})
	}
	// Two auto-flushes at 5 and 10; 2 left buffered.
	if p.Buffered() != 2 {
		t.Fatalf("buffered = %d, want 2", p.Buffered())
	}
	if nw.Stats().Snapshot().Calls == 0 {
		t.Fatal("auto-flush sent no messages")
	}
}

func TestIndexLoadsAccounting(t *testing.T) {
	nw := buildNet(t, 8, Config{Mode: GroupIndexing})
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		nw.ScheduleObservation(moods.Observation{
			Object: moods.ObjectID(fmt.Sprintf("load-%d", i)),
			Node:   nw.Peers()[r.Intn(8)].Name(),
			At:     time.Duration(r.Intn(1000)) * time.Millisecond,
		})
	}
	nw.StartWindows(2 * time.Second)
	nw.Run()
	loads := nw.IndexLoads()
	total := 0.0
	for _, v := range loads {
		total += v
	}
	if int(total) != 200 {
		t.Fatalf("total indexed entries = %v, want 200", total)
	}
}
