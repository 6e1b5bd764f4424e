package peertrack

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"peertrack/internal/moods"
	"peertrack/internal/transport"
)

// crash kills a live node without the Leave handshake: maintenance
// stops and the listener plus all pooled connections close, exactly
// what SIGKILL does to a trackd process. State is not handed off.
func crash(n *Node) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	close(n.stopCh)
	n.wg.Wait()
	if g := n.peer.Gossip(); g != nil {
		g.Stop()
	}
	n.tr.Close()
}

// A joiner seeds its own view from its successors and nobody seeds
// theirs with it: before Join ran a gossip round of its own, a node that
// died before its first timer round was in nobody's view, no failure
// detector could condemn it and IsDead never turned true. The victim's
// own cadence is an hour, so that round is the only one it ever runs.
func TestJoinerThatDiesAtOnceIsDeclaredDead(t *testing.T) {
	opts := NodeOptions{NetworkSize: 4, StabilizeEvery: 50 * time.Millisecond, GossipEvery: 50 * time.Millisecond}
	nodes := startFleet(t, 3, opts)
	joinAndSettle(t, nodes, 5*time.Second)
	opts.GossipEvery = time.Hour
	victim := startFleet(t, 1, opts)[0]
	if err := victim.Join(nodes[0].Addr()); err != nil {
		t.Fatal(err)
	}
	crash(victim)

	// Two failed contacts condemn (gossip.Config.SuspicionThreshold); a
	// survivor that knows the victim picks it one round in three.
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, n := range nodes {
			if n.peer.Gossip().IsDead(transport.Addr(victim.Addr())) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no survivor declared dead a joiner that crashed right after Join returned")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A live ring with replication factor 2 and the resilient RPC layer
// must survive a hard crash: gossip rounds (driven by the kernel pump,
// not simulated time) declare the victim dead, chord repair routes
// around it, and reads fail over to the surviving replica — with the
// retry/breaker counters accounting for every redundant attempt.
func TestLiveFailoverWithReplicas(t *testing.T) {
	opts := NodeOptions{
		NetworkSize:       4,
		Replicas:          2,
		StabilizeEvery:    50 * time.Millisecond,
		WindowInterval:    50 * time.Millisecond,
		GossipEvery:       50 * time.Millisecond,
		ReplicaSyncEvery:  150 * time.Millisecond,
		RPCAttempts:       3,
		RPCAttemptTimeout: 250 * time.Millisecond,
		RPCBudget:         time.Second,
		RPCBackoff:        10 * time.Millisecond,
		BreakerThreshold:  4,
		BreakerCooldown:   300 * time.Millisecond,
	}
	nodes := startFleet(t, 4, opts)
	// Settled means the ring is closed. (Join's own gossip round has put
	// every joiner in somebody's view: TestJoinerThatDiesAtOnceIsDeclaredDead.)
	joinAndSettle(t, nodes, 5*time.Second)

	// Each site observes a few objects; every put replicates its index
	// record to the ring successor synchronously.
	t0 := time.Now()
	objects := []string{"obj-a", "obj-b", "obj-c", "obj-d", "obj-e", "obj-f"}
	for i, obj := range objects {
		n := nodes[i%len(nodes)]
		if err := n.ObserveAt(obj, t0); err != nil {
			t.Fatal(err)
		}
		n.Flush()
	}

	// Crash the non-querying node holding the most index records, so
	// reads must fail over to replicas; node 0 stays alive to query.
	victim := 1
	best := -1
	for i, n := range nodes[1:] {
		if _, indexed := n.StorageStats(); indexed > best {
			best, victim = indexed, i+1
		}
	}
	victimAddr := nodes[victim].Addr()
	crash(nodes[victim])

	// The survivors' gossip agents must reach a dead verdict from live
	// rounds alone.
	q := nodes[0]
	deadline := time.Now().Add(10 * time.Second)
	for !q.peer.Gossip().IsDead(transport.Addr(victimAddr)) {
		if time.Now().After(deadline) {
			t.Fatal("gossip never declared the crashed node dead")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Every object stays locatable across the crash window. Individual
	// locates may fail while the ring repairs; each must succeed within
	// the window, and once the breaker learns the dead peer the whole
	// sweep settles.
	for _, obj := range objects {
		var err error
		var loc string
		for attempt := 0; attempt < 50; attempt++ {
			if loc, _, err = q.Locate(obj, t0.Add(time.Millisecond)); err == nil {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		if err != nil || loc == "" {
			t.Fatalf("locate %s after crash: %q, %v", obj, loc, err)
		}
	}

	// The wrapper saw the crash: retries or breaker activity, and its
	// accounting still conserves.
	snap, ok := q.Resilience()
	if !ok {
		t.Fatal("resilience disabled on a default node")
	}
	if snap.Retries == 0 && snap.BreakerOpens == 0 {
		t.Errorf("crash window left no resilience trace: %+v", snap)
	}
	// The counters are read one by one while q's maintenance keeps
	// calling, and a call in flight reads as a mismatch (1 run in 25 at
	// 50 ms cadences): some instant between calls must conserve.
	for i := 0; !snap.Conserves() && i < 200; i++ {
		time.Sleep(time.Millisecond)
		snap, _ = q.Resilience()
	}
	if !snap.Conserves() {
		t.Errorf("live resilience counters do not conserve: %+v", snap)
	}
}

// A node started with NoResilience must not carry a wrapper, and its
// metrics must not claim resilience counters.
func TestLiveNoResilienceBaseline(t *testing.T) {
	n, err := StartNode("127.0.0.1:0", NodeOptions{NoResilience: true, GossipEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, ok := n.Resilience(); ok {
		t.Fatal("NoResilience node reports a resilience snapshot")
	}
	if n.peer.Gossip() != nil {
		t.Fatal("GossipEvery<0 node still carries a membership agent")
	}
	if text := n.Telemetry().Snapshot().Text(); strings.Contains(text, "transport.resilient.") {
		t.Fatalf("baseline node exports resilient counters:\n%s", text)
	}
}

// A clean shutdown must not drop the open capture window: an event the
// node accepted is in its local repository, but until the window
// flushes no gateway has heard of it. Close flushes once before it
// leaves the ring, so a trace from the surviving node (which mirrors
// the leaver's repository at factor 2) still shows the stop.
func TestCloseFlushesOpenWindow(t *testing.T) {
	opts := NodeOptions{
		NetworkSize:    2,
		Replicas:       2,
		StabilizeEvery: 50 * time.Millisecond,
		WindowInterval: time.Hour, // only Close can flush within the test
		GossipEvery:    -1,
	}
	nodes := startFleet(t, 2, opts)
	joinAndSettle(t, nodes, 5*time.Second)
	a, b := nodes[0], nodes[1]

	// Enough objects that both nodes are gateway for some of them.
	objects := make([]string, 16)
	t0 := time.Now()
	for i := range objects {
		objects[i] = fmt.Sprintf("obj-%02d", i)
		if err := a.ObserveAt(objects[i], t0); err != nil {
			t.Fatal(err)
		}
	}
	aAddr := a.Addr()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	for _, obj := range objects {
		if stops, _, err := b.Trace(obj); err != nil || len(stops) != 1 || stops[0].Node != aAddr {
			t.Errorf("trace %s after the observer closed = %v, %v; want the one stop at %s", obj, stops, err, aAddr)
		}
	}
}

// TestCloseKeepsTheIndex: a graceful leave hands the leaver's gateway
// buckets to its ring successor (core.Peer.Shutdown), which owns
// their part of the ring once the leaver is gone, and a reader whose
// cached resolution still names the leaver asks the ring again. At
// factor 1 there is no other copy, so every object held by a node that
// is still up must locate there after a node that indexed some of them
// closes.
func TestCloseKeepsTheIndex(t *testing.T) {
	nodes := startFleet(t, 5, NodeOptions{NetworkSize: 5})
	joinAndSettle(t, nodes, 10*time.Second)
	oracle := moods.NewHistoryStore()
	t0 := time.Now()
	objects := make([]string, 60)
	for i := range objects {
		objects[i] = fmt.Sprintf("leave-%02d", i)
		if err := observeAt(oracle, nodes[i%len(nodes)], objects[i], t0); err != nil {
			t.Fatal(err)
		}
	}
	barrier(t, nodes)
	checkFleet(t, nodes, oracle)

	leaver := nodes[0]
	for _, n := range nodes {
		if _, indexed := n.StorageStats(); indexed > 0 {
			leaver = n
		}
	}
	if _, indexed := leaver.StorageStats(); indexed == 0 {
		t.Fatal("no node indexes anything")
	}
	if err := leaver.Close(); err != nil {
		t.Fatal(err)
	}
	asker := nodes[0]
	if asker == leaver {
		asker = nodes[1]
	}
	for i, obj := range objects {
		holder := nodes[i%len(nodes)]
		if holder == leaver {
			continue
		}
		if at, _, err := asker.Locate(obj, t0.Add(time.Second)); err != nil || at != holder.Addr() {
			t.Errorf("locate %s after %s closed = %q, %v; want %s", obj, leaver.Addr(), at, err, holder.Addr())
		}
	}
}

// Factor-2 ingest on a live fleet must cost the same per event however
// much is already stored: handler goroutines of one node share each
// unit's mirror stream instead of each re-shipping the whole unit
// because another's version bump made the mirror look behind. Clients
// post barriered hop waves until the stores hold three times what they
// held after the first third; the fleet must have sent next to no
// whole-unit pushes, as many bytes and calls a wave at the end as at the
// start, answer no route, link or mirror wrong — the simulator's own
// invariant catalog, against what the clients posted — and answer a
// trace with the full route.
func TestLiveReplicatedIngestStaysFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP fleet")
	}
	const (
		fleet   = 5
		objects = 800
		clients = 4
		third   = 5
		waves   = 17 // measured hops; with the unmeasured hop 0 the stores end at 18 waves, 3 × the 6 held after the first third
	)
	opts := NodeOptions{
		NetworkSize:      fleet,
		Replicas:         2,
		StabilizeEvery:   50 * time.Millisecond,
		WindowInterval:   time.Hour, // windows close when full or at the barrier, so a barrier is exact
		WindowMaxObjects: 64,
		ReplicaSyncEvery: 200 * time.Millisecond, // anti-entropy probes run beside the ingest
	}
	nodes := startFleet(t, fleet, opts)
	joinAndSettle(t, nodes, 5*time.Second)

	// Object j starts at node j and moves on by a stride of 1–4 nodes
	// per hop, so consecutive stops differ and every node sees every
	// wave.
	stop := func(j, hop int) *Node { return nodes[(j+hop*(1+j%(fleet-1)))%fleet] }
	name := func(j int) string { return fmt.Sprintf("urn:flat:%04d", j) }
	t0 := time.Now()
	oracle := moods.NewHistoryStore()
	// work is what the fleet has sent so far: transport bytes and calls.
	work := func() (w [2]float64) {
		for _, n := range nodes {
			w[0] += float64(n.Telemetry().Counter("transport.bytes").Value())
			w[1] += float64(n.Telemetry().Counter("transport.calls").Value())
		}
		return w
	}
	wave := func(hop int) [2]float64 {
		before := work()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for j := c; j < objects; j += clients {
					// An error is a full window whose flush failed: the event
					// stays buffered for the barrier.
					if err := observeAt(oracle, stop(j, hop), name(j), t0.Add(time.Duration(hop)*time.Minute)); err != nil {
						t.Log(err)
					}
				}
			}(c)
		}
		wg.Wait()
		barrier(t, nodes)
		after := work()
		return [2]float64{after[0] - before[0], after[1] - before[1]}
	}
	wave(0)
	perWave := make([][2]float64, 0, waves)
	for hop := 1; hop <= waves; hop++ {
		perWave = append(perWave, wave(hop))
	}
	// The gate that pins the cause is deterministic: whole-unit pushes per
	// observation, fleet-wide.
	var pushes uint64
	var causes string
	for _, n := range nodes {
		pushes += n.Telemetry().Counter("core.replication.repair_pushes").Value()
	}
	for _, c := range []string{"repair_pushes.new_mirror", "repair_pushes.not_current", "repair_pushes.probe_mismatch", "coalesced"} {
		var sum uint64
		for _, n := range nodes {
			sum += n.Telemetry().Counter("core.replication." + c).Value()
		}
		causes += fmt.Sprintf(" %s=%d", c, sum)
	}
	observed := objects * (waves + 1)
	t.Logf("%d whole-unit pushes for %d observations:%s", pushes, observed, causes)
	if float64(pushes) > 0.02*float64(observed) {
		t.Errorf("%d whole-unit pushes for %d observations, want at most 2%%", pushes, observed)
	}
	// Flatness is its per-wave consequence, in work, not wall time: a
	// wave's bytes and calls, the last third's mean against the first's.
	// Delta pushes ship each wave's own events. Only a repository delta
	// grows: it carries a dirtied object's visit list at the node, and an
	// object here cycles the five nodes, so at hop h that list holds
	// ⌊h/5⌋+1 visits (1.2 in the first third, 3.6 in the last); measured,
	// bytes grow 1.4× and calls 1.0×. Whole-unit pushes ship the store,
	// which triples between the end of the first third (6 waves held) and
	// the end (18), so their bytes grow ≥ 3×, as would the calls of any
	// per-event walk the store lengthens. 2× sits between the regimes;
	// the maintenance rounds a slow wave adds are ≈ 1 % of its bytes.
	mean := func(ws [][2]float64, i int) (sum float64) {
		for _, w := range ws {
			sum += w[i]
		}
		return sum / float64(len(ws))
	}
	for i, what := range []string{"transport bytes", "transport calls"} {
		first, last := mean(perWave[:third], i), mean(perWave[waves-third:], i)
		t.Logf("%s per wave of %d events: %.0f in the first third, %.0f in the last", what, objects, first, last)
		if last > 2*first {
			t.Errorf("%s per wave grew with the stores: %.0f in the first third, %.0f in the last; all waves: %v", what, first, last, perWave)
		}
	}
	// Every route, every from/to link and every mirror, by the catalog;
	// one trace a node so the wire's query path answers too.
	checkFleet(t, nodes, oracle)
	for j, n := range nodes {
		stops, _, err := n.Trace(name(j))
		route := oracle.FullTrace(moods.ObjectID(name(j)))
		if err != nil || !slices.EqualFunc(stops, route, func(s Stop, v moods.Visit) bool { return s.Node == string(v.Node) }) {
			t.Errorf("trace %s = %v, %v; want the %d stops of its route", name(j), stops, err, waves+1)
		}
	}
}
