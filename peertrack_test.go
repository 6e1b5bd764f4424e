package peertrack

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"peertrack/internal/ids"
	"peertrack/internal/moods"
)

func TestSimulationQuickstartFlow(t *testing.T) {
	sim, err := NewSimulation(SimOptions{Nodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	nodes := sim.Nodes()
	if len(nodes) != 16 {
		t.Fatalf("nodes = %d", len(nodes))
	}
	obj := "urn:epc:id:sgtin:0614141.812345.400"
	sim.Observe(nodes[0], obj, 1*time.Second)
	sim.Observe(nodes[5], obj, 2*time.Minute)
	sim.Observe(nodes[9], obj, 4*time.Minute)
	sim.Run(10 * time.Minute)

	stops, stats, err := sim.Trace(nodes[3], obj)
	if err != nil {
		t.Fatal(err)
	}
	if len(stops) != 3 {
		t.Fatalf("stops = %v", stops)
	}
	if stops[0].Node != nodes[0] || stops[2].Node != nodes[9] {
		t.Fatalf("trace = %v", stops)
	}
	if stats.Hops <= 0 || stats.Time <= 0 {
		t.Errorf("stats = %+v", stats)
	}

	loc, _, err := sim.Locate(nodes[1], obj, 3*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if loc != nodes[5] {
		t.Fatalf("located at %q, want %q", loc, nodes[5])
	}
	if _, _, err := sim.Locate(nodes[1], "nope", time.Hour); !errors.Is(err, ErrNotTracked) {
		t.Fatalf("untracked err = %v", err)
	}
}

func TestSimulationTraceBetween(t *testing.T) {
	sim, err := NewSimulation(SimOptions{Nodes: 12, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	nodes := sim.Nodes()
	obj := "windowed-object"
	for i := 0; i < 5; i++ {
		sim.Observe(nodes[i*2], obj, time.Duration(i+1)*time.Minute)
	}
	sim.Run(10 * time.Minute)
	stops, _, err := sim.TraceBetween(nodes[1], obj, 150*time.Second, 250*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(stops) != 3 { // node at 2m (occupied), 3m, 4m
		t.Fatalf("windowed stops = %v", stops)
	}
}

func TestSimulationUnknownNode(t *testing.T) {
	sim, _ := NewSimulation(SimOptions{Nodes: 4})
	if err := sim.Observe("nowhere", "o", time.Second); err == nil {
		t.Error("observe at unknown node accepted")
	}
	if _, _, err := sim.Trace("nowhere", "o"); err == nil {
		t.Error("trace from unknown node accepted")
	}
}

func TestSimulationIndividualMode(t *testing.T) {
	sim, err := NewSimulation(SimOptions{Nodes: 8, Mode: Individual})
	if err != nil {
		t.Fatal(err)
	}
	nodes := sim.Nodes()
	obj := "ind-object"
	sim.Observe(nodes[0], obj, time.Second)
	sim.Observe(nodes[3], obj, time.Minute)
	sim.Run(2 * time.Minute)
	stops, _, err := sim.Trace(nodes[6], obj)
	if err != nil {
		t.Fatal(err)
	}
	if len(stops) != 2 {
		t.Fatalf("stops = %v", stops)
	}
	if sim.Messages() == 0 {
		t.Error("no messages counted")
	}
}

func TestSimulationGrow(t *testing.T) {
	sim, err := NewSimulation(SimOptions{Nodes: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	nodes := sim.Nodes()
	obj := "grow-object"
	sim.Observe(nodes[0], obj, time.Second)
	sim.Observe(nodes[4], obj, time.Minute)
	sim.Run(2 * time.Minute)
	if err := sim.Grow(24); err != nil {
		t.Fatal(err)
	}
	if len(sim.Nodes()) != 32 {
		t.Fatalf("nodes after grow = %d", len(sim.Nodes()))
	}
	stops, _, err := sim.Trace(sim.Nodes()[20], obj)
	if err != nil {
		t.Fatal(err)
	}
	if len(stops) != 2 {
		t.Fatalf("stops after grow = %v", stops)
	}
}

func TestLiveNodesOverTCP(t *testing.T) {
	// Three-organisation live network on loopback.
	nodes := startFleet(t, 3, NodeOptions{NetworkSize: 3, StabilizeEvery: 50 * time.Millisecond, WindowInterval: 50 * time.Millisecond})
	joinAndSettle(t, nodes, 5*time.Second)
	a, b, c := nodes[0], nodes[1], nodes[2]

	obj := "urn:epc:id:sgtin:0614141.812345.777"
	oracle := moods.NewHistoryStore()
	t0 := time.Now()
	for i, n := range nodes {
		if err := observeAt(oracle, n, obj, t0.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
		n.Flush()
	}

	stops, _, err := a.Trace(obj)
	if err != nil || len(stops) != 3 || stops[0].Node != a.Addr() || stops[1].Node != b.Addr() || stops[2].Node != c.Addr() {
		t.Fatalf("live trace = %v, %v; want %s, %s, %s", stops, err, a.Addr(), b.Addr(), c.Addr())
	}
	if loc, _, err := b.Locate(obj, t0.Add(1500*time.Millisecond)); err != nil || loc != b.Addr() {
		t.Fatalf("located at %q, %v; want %q", loc, err, b.Addr())
	}
	barrier(t, nodes)
	checkFleet(t, nodes, oracle)
}

func TestLiveNodesWithSharedSecret(t *testing.T) {
	nodes := startFleet(t, 2, NodeOptions{NetworkSize: 2, NetworkSecret: "supply-chain-secret", StabilizeEvery: 50 * time.Millisecond, WindowInterval: 50 * time.Millisecond})
	joinAndSettle(t, nodes, 5*time.Second)
	a, b := nodes[0], nodes[1]
	obj := "secured-object"
	if err := a.ObserveAt(obj, time.Now()); err != nil {
		t.Fatal(err)
	}
	a.Flush()
	if _, _, err := b.Trace(obj); err != nil {
		t.Fatalf("trace over authenticated transport: %v", err)
	}

	// A node with the wrong secret cannot join.
	evil := startFleet(t, 1, NodeOptions{NetworkSize: 2, NetworkSecret: "wrong"})[0]
	if err := evil.Join(a.Addr()); err == nil {
		t.Fatal("join with wrong secret succeeded")
	}
}

func TestLiveNodeCloseIdempotent(t *testing.T) {
	n, err := StartNode("127.0.0.1:0", NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

// An IPv6 literal listen address with port 0 must bind an ephemeral
// port on that host: the brackets belong to the host:port syntax, not to
// the host handed to the listener.
func TestStartNodeIPv6EphemeralPort(t *testing.T) {
	probe, err := net.Listen("tcp", "[::1]:0")
	if err != nil {
		t.Skipf("::1 not bindable here: %v", err)
	}
	probe.Close()
	n, err := StartNode("[::1]:0", NodeOptions{GossipEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	host, port, err := net.SplitHostPort(n.Addr())
	if err != nil || host != "::1" || port == "0" {
		t.Fatalf("Addr() = %q, want [::1]:<ephemeral port>", n.Addr())
	}
}

// A node pinned at an astronomical network size caps Lp at the longest
// prefix a group key holds, and still indexes, flushes and finds an
// object at that level.
func TestHugeNetworkSizeCapsLp(t *testing.T) {
	n, err := StartNode("127.0.0.1:0", NodeOptions{NetworkSize: 1e20, GossipEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, _, lp := n.RingInfo(); lp != ids.MaxKeyLen {
		t.Fatalf("Lp = %d at Nn 1e20, want %d", lp, ids.MaxKeyLen)
	}
	at := time.Now()
	if err := n.ObserveAt("urn:huge:1", at); err != nil {
		t.Fatal(err)
	}
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	if where, _, err := n.Locate("urn:huge:1", at.Add(time.Second)); err != nil || where != n.Addr() {
		t.Fatalf("Locate = %q, %v; want %q", where, err, n.Addr())
	}
}

func BenchmarkSimulationTrace(b *testing.B) {
	sim, err := NewSimulation(SimOptions{Nodes: 64})
	if err != nil {
		b.Fatal(err)
	}
	nodes := sim.Nodes()
	for i := 0; i < 128; i++ {
		obj := fmt.Sprintf("bench-%d", i)
		sim.Observe(nodes[i%64], obj, time.Second)
		sim.Observe(nodes[(i+7)%64], obj, time.Minute)
		sim.Observe(nodes[(i+13)%64], obj, 2*time.Minute)
	}
	sim.Run(5 * time.Minute)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sim.Trace(nodes[i%64], fmt.Sprintf("bench-%d", i%128)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSimulationContainment(t *testing.T) {
	sim, err := NewSimulation(SimOptions{Nodes: 16, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	nodes := sim.Nodes()
	pallet := "pallet-x"
	box := "box-x"
	sim.Observe(nodes[1], box, time.Minute)
	sim.Observe(nodes[1], pallet, time.Minute)
	sim.Pack(nodes[1], pallet, []string{box}, 2*time.Minute)
	sim.Observe(nodes[6], pallet, time.Hour)
	sim.Unpack(nodes[6], pallet, []string{box}, time.Hour+time.Minute)
	sim.Observe(nodes[11], box, 2*time.Hour)
	sim.Run(3 * time.Hour)

	stops, _, err := sim.ResolveTrace(nodes[0], box)
	if err != nil {
		t.Fatal(err)
	}
	if len(stops) != 3 || stops[1].Node != nodes[6] {
		t.Fatalf("resolved stops = %v", stops)
	}
	if err := sim.Pack("nowhere", pallet, []string{box}, time.Hour); err == nil {
		t.Error("pack at unknown node accepted")
	}
}

func TestSimulationShrink(t *testing.T) {
	sim, err := NewSimulation(SimOptions{Nodes: 32, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	nodes := sim.Nodes()
	obj := "shrink-obj"
	sim.Observe(nodes[0], obj, time.Second)
	sim.Observe(nodes[5], obj, time.Minute)
	sim.Run(2 * time.Minute)
	if err := sim.Shrink(16); err != nil {
		t.Fatal(err)
	}
	if len(sim.Nodes()) != 16 {
		t.Fatalf("nodes after shrink = %d", len(sim.Nodes()))
	}
	stops, _, err := sim.Trace(sim.Nodes()[3], obj)
	if err != nil {
		t.Fatal(err)
	}
	if len(stops) != 2 {
		t.Fatalf("stops after shrink = %v", stops)
	}
}
