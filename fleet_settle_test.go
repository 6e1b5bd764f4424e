package peertrack

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"peertrack/internal/chord"
	"peertrack/internal/core"
	"peertrack/internal/ids"
	"peertrack/internal/invariants"
	"peertrack/internal/moods"
)

// The fleet harness. A root test that runs more than one TCP node starts
// them (startFleet), waits for the ring (joinAndSettle), drains the
// windows (barrier) and checks the whole state (checkFleet) through these
// and nothing of its own. startFleet's nodes listen on ephemeral loopback
// ports; the test's cleanup closes them.
func startFleet(tb testing.TB, n int, opts NodeOptions) []*Node {
	tb.Helper()
	nodes := make([]*Node, n)
	for i := range nodes {
		node, err := StartNode("127.0.0.1:0", opts)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { node.Close() })
		nodes[i] = node
	}
	return nodes
}

// ringWalk follows next from nodes[0] and reports how many distinct
// members it visits before it revisits one or leaves the fleet, and
// whether it came back to its start having visited all of them.
func ringWalk(nodes []*Node, next func(*Node) string) (visited int, closed bool) {
	byAddr := make(map[string]*Node, len(nodes))
	for _, n := range nodes {
		byAddr[n.Addr()] = n
	}
	seen := map[*Node]bool{}
	cur := nodes[0]
	for cur != nil && !seen[cur] {
		seen[cur] = true
		cur = byAddr[next(cur)]
	}
	return len(seen), cur == nodes[0] && len(seen) == len(nodes)
}

func succOf(n *Node) string { s, _, _ := n.RingInfo(); return s }
func predOf(n *Node) string { _, p, _ := n.RingInfo(); return p }

// joinAndSettle joins every node through the first and polls until the
// successor walk and the predecessor walk both close over the whole
// fleet. It returns how long that took from the first join, and each
// length the successor walk passed through on the way with its time.
func joinAndSettle(tb testing.TB, nodes []*Node, timeout time.Duration) (settled time.Duration, walk []string) {
	tb.Helper()
	start := time.Now()
	for _, n := range nodes[1:] {
		if err := n.Join(nodes[0].Addr()); err != nil {
			tb.Fatal(err)
		}
	}
	last := 0
	for {
		sv, sok := ringWalk(nodes, succOf)
		pv, pok := ringWalk(nodes, predOf)
		if sv != last {
			last = sv
			walk = append(walk, fmt.Sprintf("%d@%dms", sv, time.Since(start).Milliseconds()))
		}
		if sok && pok {
			return time.Since(start), walk
		}
		if time.Since(start) > timeout {
			tb.Fatalf("ring of %d not closed after %v: successor walk visits %d, predecessor walk %d", len(nodes), timeout, sv, pv)
		}
		time.Sleep(time.Millisecond)
	}
}

// observeAt posts one capture event at n and records it in oracle, the
// ground truth checkFleet compares the fleet against.
func observeAt(oracle *moods.HistoryStore, n *Node, object string, at time.Time) error {
	oracle.Record(moods.Observation{Object: moods.ObjectID(object), Node: moods.NodeName(n.Addr()), At: at.Sub(nodeEpoch)})
	return n.ObserveAt(object, at)
}

// barrier flushes every node, all at once, until no window holds an event
// (a deferred stitch or an undelivered group is re-buffered); twenty
// passes that leave one fail the test.
func barrier(tb testing.TB, nodes []*Node) {
	tb.Helper()
	for buffered, tries := 1, 0; buffered > 0; tries++ {
		if tries == 20 {
			tb.Fatalf("%d events still buffered after %d flushes", buffered, tries)
		}
		var wg sync.WaitGroup
		for _, n := range nodes {
			wg.Add(1)
			go func(n *Node) {
				defer wg.Done()
				if err := n.Flush(); err != nil {
					tb.Log(err)
				}
			}(n)
		}
		wg.Wait()
		buffered = 0
		for _, n := range nodes {
			buffered += n.peer.Buffered()
		}
	}
}

// checkFleet runs the simulator's invariant catalog, exact profile, over
// the fleet's peers (the caller's barrier first); oracle is what the test
// posted, or nil to hold the fleet to what its repositories store. The catalog
// wants whole successor lists, which fill a place a round after the walks
// joinAndSettle waits for close: they get ten seconds, Check names the rest.
func checkFleet(tb testing.TB, nodes []*Node, oracle *moods.HistoryStore) {
	tb.Helper()
	for _, v := range fleetViolations(nodes, oracle) {
		tb.Errorf("%s", v)
	}
}

func fleetViolations(nodes []*Node, oracle *moods.HistoryStore) []invariants.Violation {
	peers := make([]*core.Peer, len(nodes))
	ring := make([]*chord.Node, len(nodes))
	for i, n := range nodes {
		peers[i], ring[i] = n.peer, n.peer.Node()
	}
	for start := time.Now(); len(invariants.CheckRing(ring)) > 0 && time.Since(start) < 10*time.Second; {
		time.Sleep(10 * time.Millisecond)
	}
	return invariants.Check(peers, oracle, invariants.Options{Exact: true})
}

func stabilizeRounds(n *Node) uint64 { return n.tel.Counter("chord.stabilize.rounds").Value() }

// TestFleetSettlesAtDefaultCadence is the live half of core's
// TestJoinBurstConverges: sixteen TCP nodes with default options, where
// the ring-change signal comes from handler goroutines and reaches the
// kernel through the pacer's wake. The ring must close well inside one
// 2 s cadence (on the timer alone it took two to three), and once the
// catch-up chains have run out, three cadences cost three rounds.
func TestFleetSettlesAtDefaultCadence(t *testing.T) {
	begin := time.Now()
	nodes := startFleet(t, 16, NodeOptions{NetworkSize: 16})
	// Every node's rows fire at its own start + 2k s, so all of a round's
	// firings fall in a band this wide after begin + 2k s.
	band := time.Since(begin)
	if band > 500*time.Millisecond {
		t.Fatalf("starting the fleet took %v: too slow a machine to tell a 2 s cadence from its neighbours", band)
	}
	settled, walk := joinAndSettle(t, nodes, 10*time.Second)
	t.Logf("fleet started in %v, ring closed %v after the first join; successor walk %v", band, settled, walk)
	if settled > 2*time.Second {
		t.Errorf("ring closed after %v, want < 2s", settled)
	}

	// The last pointer moved before the ring closed, so every chain has
	// ended 2 s after that. Sample half-way between two bands of row
	// firings, where no round is due for most of a second either side.
	quietFrom := begin.Add(5*time.Second + band/2)
	if chainsEnd := begin.Add(band + settled + 2*time.Second); chainsEnd.After(quietFrom) {
		quietFrom = quietFrom.Add(2 * time.Second)
	}
	time.Sleep(time.Until(quietFrom))
	before := make([]uint64, len(nodes))
	for i, n := range nodes {
		before[i] = stabilizeRounds(n)
		if before[i] < 3 {
			t.Errorf("node %d had run %d stabilize rounds when the quiet began, want ≥ 3", i, before[i])
		}
	}
	time.Sleep(time.Until(quietFrom.Add(6 * time.Second)))
	for i, n := range nodes {
		if got := stabilizeRounds(n) - before[i]; got != 3 {
			t.Errorf("node %d ran %d stabilize rounds in 6 quiet seconds, want 3", i, got)
		}
	}
}

// TestPinnedFleetFirstWindowHasNoAscent: a node pinned to a size was
// never at another Lp, so the first sighting of a group has no shorter
// prefix to probe (paper §IV: "while there exists gateway node for
// prefix p′"). A node used to boot at size 1 and pin afterwards, which
// left L_min in its history for life: 2.8 fetchIndexReq a group.
func TestPinnedFleetFirstWindowHasNoAscent(t *testing.T) {
	nodes := startFleet(t, 16, NodeOptions{NetworkSize: 16})
	joinAndSettle(t, nodes, 10*time.Second)
	for i, n := range nodes {
		for j := 0; j < 32; j++ {
			if err := n.Observe(fmt.Sprintf("urn:first:%d:%d", i, j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	barrier(t, nodes)
	var groups, lookupHops, fetches, ascents uint64
	for _, n := range nodes {
		groups += n.tel.Counter("transport.call.type.core.groupArriveReq").Value()
		lookupHops += n.tel.Counter("transport.call.type.chord.closestPrecedingReq").Value()
		fetches += n.tel.Counter("transport.call.type.core.fetchIndexReq").Value()
		ascents += n.tel.Counter("core.triangle.ascent_fetches").Value()
	}
	t.Logf("joins, settling and first window: %d groupArriveReq, %d closestPrecedingReq, %d fetchIndexReq", groups, lookupHops, fetches)
	if groups == 0 || fetches != 0 || ascents != 0 {
		t.Errorf("first window: %d groupArriveReq, %d fetchIndexReq, %d ascent fetches; want some, 0, 0", groups, fetches, ascents)
	}
	if at, _, err := nodes[0].Locate("urn:first:9:9", time.Now()); err != nil || at != nodes[9].Addr() {
		t.Errorf("locate urn:first:9:9 from node 0 = %q, %v; want %s", at, err, nodes[9].Addr())
	}
	checkFleet(t, nodes, nil)
}

// TestDeadNeighbourIsNotProbedFaster kills one node of a settled fleet.
// Dropping it is the rows' work and starts no chain; closing the ring
// around it splices its predecessor in behind its successor, which may
// run the chain's six extra rounds, against live nodes. Until the
// verdict lands, gossip samples keep putting the dead node back at its
// predecessor's head, one extra round each. Nobody else runs any, and
// the dead node is retried no more often than on the timer alone.
func TestDeadNeighbourIsNotProbedFaster(t *testing.T) {
	const (
		every   = 400 * time.Millisecond
		periods = 10
	)
	nodes := startFleet(t, 6, NodeOptions{NetworkSize: 6, StabilizeEvery: every})
	joinAndSettle(t, nodes, 10*time.Second)
	time.Sleep(every + every/2) // the chains run out; everyone is on the row alone

	victim := nodes[3]
	vSucc, vPred := succOf(victim), predOf(victim)
	var survivors []*Node
	for _, n := range nodes {
		if n != victim {
			survivors = append(survivors, n)
		}
	}
	rounds := make([]uint64, len(survivors))
	retries := make([]uint64, len(survivors))
	for i, n := range survivors {
		rounds[i] = stabilizeRounds(n)
		retries[i] = n.tel.Counter("transport.resilient.retries").Value()
	}
	crash(victim)
	time.Sleep(periods * every)

	for i, n := range survivors {
		extra := int(stabilizeRounds(n)-rounds[i]) - periods
		retried := n.tel.Counter("transport.resilient.retries").Value() - retries[i]
		neighbour := n.Addr() == vSucc || n.Addr() == vPred
		t.Logf("%s neighbour=%v: %d rounds beyond the row's %d, %d retries", n.Addr(), neighbour, extra, periods, retried)
		allowed := 1 // a row firing on the window's edge
		if neighbour {
			allowed += 6
		}
		if extra > allowed {
			t.Errorf("%s (neighbour: %v) ran %d rounds beyond the row's %d in %d cadences, want ≤ %d", n.Addr(), neighbour, extra, periods, periods, allowed)
		}
		// Three attempts a call and a breaker that opens on the fifth
		// failure in a row, for 3 s: a survivor retries the dead node
		// three times, whoever asks and however often. Measured 0–3 a
		// node on the timer alone and 0–3 with the chain.
		if retried > 4 {
			t.Errorf("%s retried %d calls in %v after the crash, want ≤ 4", n.Addr(), retried, periods*every)
		}
	}
}

// TestCheckFleetCatchesPlantedFaults: the catalog is as sharp on sockets
// as in the simulator, with the posted history and with none. Each fault
// is planted through core's test hooks, named, and undone.
func TestCheckFleetCatchesPlantedFaults(t *testing.T) {
	nodes := startFleet(t, 3, NodeOptions{NetworkSize: 3, StabilizeEvery: 50 * time.Millisecond, WindowInterval: time.Hour})
	joinAndSettle(t, nodes, 5*time.Second)
	oracle := moods.NewHistoryStore()
	t0 := time.Now()
	for hop := 0; hop < 3; hop++ {
		for j := 0; j < 12; j++ {
			if err := observeAt(oracle, nodes[(j+hop)%3], fmt.Sprintf("urn:plant:%d", j), t0.Add(time.Duration(hop)*time.Minute)); err != nil {
				t.Fatal(err)
			}
		}
		barrier(t, nodes)
	}
	// One object's record, the gateway holding it and a node that must not.
	var gw, other int
	var key ids.PrefixKey
	var rec core.IndexEntry
	for i, n := range nodes {
		for _, b := range n.peer.DumpIndex() {
			for _, e := range b.Entries {
				if e.Object == "urn:plant:7" {
					gw, other, key, rec = i, (i+1)%3, b.Key, e
				}
			}
		}
	}
	forged := core.IndexEntry{Object: "urn:forged", ID: rec.ID, Latest: rec.Latest, Arrived: rec.Arrived}
	forged.ID[0] ^= 0x80 // its first bit leaves every prefix the record's id has
	for _, fault := range []struct {
		at     int
		e      core.IndexEntry
		remove bool
		want   []string
	}{
		{other, forged, false, []string{"triangle-prefix", "gateway-placement"}},
		{other, rec, false, []string{"index-unique"}},
		{gw, rec, true, []string{"index-missing"}},
	} {
		plant := func(remove bool) {
			if remove {
				nodes[fault.at].peer.RemoveIndexEntry(key, fault.e.ID)
			} else {
				nodes[fault.at].peer.InjectIndexEntry(key, fault.e)
			}
		}
		plant(fault.remove)
		for _, truth := range []*moods.HistoryStore{oracle, nil} {
			vs := fleetViolations(nodes, truth)
			for _, name := range fault.want {
				if !slices.ContainsFunc(vs, func(v invariants.Violation) bool { return v.Invariant == name }) {
					t.Errorf("planted fault (oracle: %v) not reported as %s: %v", truth != nil, name, vs)
				}
			}
		}
		plant(!fault.remove)
	}
	checkFleet(t, nodes, oracle) // and nothing once each is undone
	checkFleet(t, nodes, nil)
}
