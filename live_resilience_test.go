package peertrack

import (
	"fmt"
	"strings"
	"testing"
	"time"

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
	if n.gossip != nil {
		n.gossip.Stop()
	}
	n.tr.Close()
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
	nodes := make([]*Node, 4)
	for i := range nodes {
		n, err := StartNode("127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[i] = n
	}
	for _, n := range nodes[1:] {
		if err := n.Join(nodes[0].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		converged := true
		for _, n := range nodes {
			if n.chord.Predecessor().IsZero() {
				converged = false
			}
		}
		if converged {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

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
	deadline = time.Now().Add(10 * time.Second)
	for !q.gossip.IsDead(transport.Addr(victimAddr)) {
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
		if err != nil {
			t.Fatalf("locate %s after crash: %v", obj, err)
		}
		if loc == "" {
			t.Fatalf("locate %s after crash: empty location", obj)
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
	if n.gossip != nil {
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
	a, err := StartNode("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := StartNode("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Join(a.Addr()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.chord.Predecessor().IsZero() || b.chord.Predecessor().IsZero() {
		if time.Now().After(deadline) {
			t.Fatal("two-node ring never converged")
		}
		time.Sleep(10 * time.Millisecond)
	}

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
		stops, _, err := b.Trace(obj)
		if err != nil {
			t.Errorf("trace %s after the observer closed: %v", obj, err)
			continue
		}
		if len(stops) != 1 || stops[0].Node != aAddr {
			t.Errorf("trace %s = %v, want the one stop at %s", obj, stops, aAddr)
		}
	}
}
