package chord

import (
	"fmt"
	"math/rand"
	"testing"

	"peertrack/internal/ids"
	"peertrack/internal/transport"
)

func addrs(n int) []transport.Addr {
	out := make([]transport.Addr, n)
	for i := range out {
		out[i] = transport.Addr(fmt.Sprintf("node-%03d", i))
	}
	return out
}

func staticRing(t testing.TB, n int) (*transport.Memory, []*Node) {
	t.Helper()
	net := transport.NewMemory(1)
	nodes, err := BuildStaticRing(net, addrs(n), Config{})
	if err != nil {
		t.Fatal(err)
	}
	return net, nodes
}

// BuildRing constructs a ring over the given addresses using the real
// protocol: every node joins through the first in one burst, which the
// joins' own rounds and two more all round must close, and a pass of
// FixFingers builds each table. Returns the nodes sorted by identifier.
func BuildRing(net transport.Network, addrs []transport.Addr, cfg Config) ([]*Node, error) {
	nodes := make([]*Node, 0, len(addrs))
	for _, a := range addrs {
		n, err := New(net, a, cfg)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, n)
	}
	for _, n := range nodes[1:] {
		if err := n.Join(nodes[0].Self()); err != nil {
			return nil, fmt.Errorf("chord: join %s: %w", n.Addr(), err)
		}
	}
	if err := StabilizeAll(nodes, 2); err != nil {
		return nil, err
	}
	if !Converged(nodes) {
		return nil, fmt.Errorf("chord: ring of %d nodes not closed two rounds after a join burst", len(nodes))
	}
	for _, n := range nodes {
		if err := n.FixAllFingers(); err != nil {
			return nil, fmt.Errorf("chord: fix fingers %s: %w", n.Addr(), err)
		}
	}
	SortByID(nodes)
	return nodes, nil
}

func refsOf(nodes []*Node) []NodeRef {
	refs := make([]NodeRef, len(nodes))
	for i, n := range nodes {
		refs[i] = n.Self()
	}
	return refs
}

func TestSingleNodeRingOwnsEverything(t *testing.T) {
	net := transport.NewMemory(1)
	n, err := New(net, "solo", Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []ids.ID{ids.HashString("a"), ids.HashString("b"), {}} {
		if !n.Owns(key) {
			t.Errorf("single node does not own %s", key.Short())
		}
		res, err := n.Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Node.Equal(n.Self()) || res.Hops != 0 {
			t.Errorf("lookup %s = %+v", key.Short(), res)
		}
	}
}

func TestStaticRingLookupCorrectness(t *testing.T) {
	_, nodes := staticRing(t, 64)
	refs := refsOf(nodes)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		key := ids.HashString(fmt.Sprintf("key-%d", r.Int63()))
		want := SuccessorOf(refs, key)
		start := nodes[r.Intn(len(nodes))]
		res, err := start.Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Node.Equal(want) {
			t.Fatalf("lookup %s from %s = %s, want %s",
				key.Short(), start.Addr(), res.Node.Addr, want.Addr)
		}
	}
}

func TestLookupHopsLogarithmic(t *testing.T) {
	_, nodes := staticRing(t, 256)
	r := rand.New(rand.NewSource(3))
	total, count := 0, 0
	maxHops := 0
	for i := 0; i < 300; i++ {
		key := ids.HashString(fmt.Sprintf("k%d", i))
		start := nodes[r.Intn(len(nodes))]
		res, err := start.Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		total += res.Hops
		count++
		if res.Hops > maxHops {
			maxHops = res.Hops
		}
	}
	avg := float64(total) / float64(count)
	// log2(256) = 8; average should be around half of that, and far
	// below linear scanning.
	if avg > 10 {
		t.Errorf("average hops = %.2f, want <= 10 for 256 nodes", avg)
	}
	if maxHops > 20 {
		t.Errorf("max hops = %d, want <= 20", maxHops)
	}
}

func TestLookupKeyEqualsNodeID(t *testing.T) {
	_, nodes := staticRing(t, 16)
	// A key equal to a node's id is owned by that node.
	for _, n := range nodes {
		res, err := nodes[0].Lookup(n.ID())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Node.Equal(n.Self()) {
			t.Fatalf("lookup of node id %s landed on %s", n.Addr(), res.Node.Addr)
		}
	}
}

func TestOwnershipPartitionsRing(t *testing.T) {
	_, nodes := staticRing(t, 32)
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		key := ids.HashString(fmt.Sprintf("part-%d", r.Int63()))
		owners := 0
		for _, n := range nodes {
			if n.Owns(key) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("key %s owned by %d nodes", key.Short(), owners)
		}
	}
}

func TestProtocolRingConverges(t *testing.T) {
	net := transport.NewMemory(1)
	nodes, err := BuildRing(net, addrs(24), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !Converged(nodes) {
		t.Fatal("protocol-built ring did not converge")
	}
	// Lookups on the protocol-built ring are correct.
	refs := refsOf(nodes)
	SortRefs(refs)
	for i := 0; i < 100; i++ {
		key := ids.HashString(fmt.Sprintf("pk%d", i))
		res, err := nodes[i%len(nodes)].Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		if want := SuccessorOf(refs, key); !res.Node.Equal(want) {
			t.Fatalf("lookup %s = %s, want %s", key.Short(), res.Node.Addr, want.Addr)
		}
	}
}

func TestJoinGrowsRing(t *testing.T) {
	net := transport.NewMemory(1)
	a, _ := New(net, "a", Config{})
	b, _ := New(net, "b", Config{})
	if err := b.Join(a.Self()); err != nil {
		t.Fatal(err)
	}
	StabilizeAll([]*Node{a, b}, 4)
	if !Converged([]*Node{a, b}) {
		t.Fatalf("2-node ring not converged: a.succ=%s a.pred=%s b.succ=%s b.pred=%s",
			a.Successor().Addr, a.Predecessor().Addr, b.Successor().Addr, b.Predecessor().Addr)
	}
}

func TestJoinThroughSelfFails(t *testing.T) {
	net := transport.NewMemory(1)
	a, _ := New(net, "a", Config{})
	if err := a.Join(a.Self()); err == nil {
		t.Fatal("join through self succeeded")
	}
}

func TestVoluntaryLeaveRelinksRing(t *testing.T) {
	net := transport.NewMemory(1)
	nodes, err := BuildRing(net, addrs(10), Config{})
	if err != nil {
		t.Fatal(err)
	}
	leaver := nodes[4]
	if err := leaver.Leave(); err != nil {
		t.Fatal(err)
	}
	rest := append(append([]*Node{}, nodes[:4]...), nodes[5:]...)
	StabilizeAll(rest, 6)
	if !Converged(nodes) { // Converged skips departed nodes
		t.Fatal("ring not converged after voluntary leave")
	}
	// Keys previously owned by the leaver now resolve to its successor.
	refs := refsOf(rest)
	SortRefs(refs)
	for i := 0; i < 50; i++ {
		key := ids.HashString(fmt.Sprintf("lk%d", i))
		res, err := rest[i%len(rest)].Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		if want := SuccessorOf(refs, key); !res.Node.Equal(want) {
			t.Fatalf("post-leave lookup %s = %s, want %s", key.Short(), res.Node.Addr, want.Addr)
		}
	}
	if err := leaver.Leave(); err != ErrLeft {
		t.Errorf("second Leave = %v, want ErrLeft", err)
	}
}

// TestRejoinWithSameIdentity crashes a node and rejoins it immediately
// under the same address — and therefore the same ID — before any
// survivor has evicted the stale entry. The join lookup for the
// reborn node's own ID resolves to its previous incarnation (itself);
// Join must treat that as "the ring still remembers me" and fall back
// to a provisional successor rather than failing, and stabilization
// must then converge the full ring including the reborn node.
func TestRejoinWithSameIdentity(t *testing.T) {
	net := transport.NewMemory(1)
	nodes, err := BuildRing(net, addrs(12), Config{})
	if err != nil {
		t.Fatal(err)
	}
	victim := nodes[7]
	addr := victim.Addr()
	net.Kill(addr)

	reborn, err := New(net, addr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := reborn.Join(nodes[0].Self()); err != nil {
		t.Fatalf("rejoin with same identity: %v", err)
	}

	live := make([]*Node, 0, len(nodes))
	for _, n := range nodes {
		if n == victim {
			n = reborn
		}
		live = append(live, n)
	}
	for r := 0; r < 20; r++ {
		for _, n := range live {
			n.CheckPredecessor()
			n.Stabilize()
		}
	}
	for _, n := range live {
		n.FixAllFingers()
	}
	refs := refsOf(live)
	SortRefs(refs)
	hitReborn := false
	for i := 0; i < 100; i++ {
		key := ids.HashString(fmt.Sprintf("rj%d", i))
		res, err := live[i%len(live)].Lookup(key)
		if err != nil {
			t.Fatalf("lookup after rejoin: %v", err)
		}
		want := SuccessorOf(refs, key)
		if !res.Node.Equal(want) {
			t.Fatalf("post-rejoin lookup %s = %s, want %s", key.Short(), res.Node.Addr, want.Addr)
		}
		if want.Addr == addr {
			hitReborn = true
		}
	}
	if !hitReborn {
		t.Fatal("no lookup key landed on the reborn node; test proves nothing")
	}
}

func TestCrashRecoveryViaStabilization(t *testing.T) {
	net := transport.NewMemory(1)
	nodes, err := BuildRing(net, addrs(12), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Crash two non-adjacent nodes without warning.
	net.Kill(nodes[3].Addr())
	net.Kill(nodes[8].Addr())
	crashed := map[int]bool{3: true, 8: true}
	live := make([]*Node, 0, 10)
	for i, n := range nodes {
		if !crashed[i] {
			live = append(live, n)
		}
	}
	for r := 0; r < 10; r++ {
		for _, n := range live {
			n.CheckPredecessor()
			n.Stabilize()
		}
	}
	for _, n := range live {
		n.FixAllFingers()
	}
	refs := refsOf(live)
	SortRefs(refs)
	for i := 0; i < 100; i++ {
		key := ids.HashString(fmt.Sprintf("ck%d", i))
		res, err := live[i%len(live)].Lookup(key)
		if err != nil {
			t.Fatalf("lookup after crashes: %v", err)
		}
		if want := SuccessorOf(refs, key); !res.Node.Equal(want) {
			t.Fatalf("post-crash lookup %s = %s, want %s", key.Short(), res.Node.Addr, want.Addr)
		}
	}
}

// TestRingChangeFires walks the hook through every place a ring pointer
// can move, and checks that rounds which move nothing leave it silent.
func TestRingChangeFires(t *testing.T) {
	net := transport.NewMemory(1)
	fired := map[transport.Addr]int{}
	mk := func(addr transport.Addr) *Node {
		n, err := New(net, addr, Config{})
		if err != nil {
			t.Fatal(err)
		}
		n.OnRingChange(func() { fired[addr]++ })
		return n
	}
	// expect runs step and requires the hook to have fired on exactly the
	// nodes named (any number of times).
	expect := func(what string, step func(), on ...transport.Addr) {
		t.Helper()
		for k := range fired {
			delete(fired, k)
		}
		step()
		want := map[transport.Addr]bool{}
		for _, a := range on {
			want[a] = true
			if fired[a] == 0 {
				t.Errorf("%s: no signal on %s", what, a)
			}
		}
		for a := range fired {
			if !want[a] {
				t.Errorf("%s: unexpected signal on %s", what, a)
			}
		}
	}

	a, b := mk("a"), mk("b")
	expect("join: the joiner's successor, the bootstrap's predecessor (notify)", func() {
		if err := b.Join(a.Self()); err != nil {
			t.Fatal(err)
		}
	}, "a", "b")
	expect("stabilize: a adopts its predecessor as successor", func() { a.Stabilize() }, "a", "b")
	expect("converged rounds", func() {
		all := []*Node{a, b}
		StabilizeAll(all, 4)
		for _, n := range all {
			n.CheckPredecessor()
			n.FixFingers()
		}
	})

	c := mk("c")
	if err := c.Join(a.Self()); err != nil {
		t.Fatal(err)
	}
	ring := []*Node{a, b, c}
	StabilizeAll(ring, 6)
	if !Converged(ring) {
		t.Fatal("three-node ring did not converge")
	}
	SortByID(ring)
	pred, leaver, succ := ring[0], ring[1], ring[2]
	expect("repair: a sample behind the head", func() { pred.RepairFromSamples([]NodeRef{succ.Self()}, nil) })
	expect("leave: both neighbours relink", func() { leaver.Leave() }, pred.Addr(), succ.Addr())

	// Dropping a dead neighbour is repair, not a ring change.
	d := mk("d")
	if err := d.Join(pred.Self()); err != nil {
		t.Fatal(err)
	}
	ring = []*Node{pred, succ, d}
	StabilizeAll(ring, 6)
	if !Converged(ring) {
		t.Fatal("three-node ring did not converge again")
	}
	dead := pred.Successor()
	net.Kill(dead.Addr)
	expect("stabilize fails over past a dead head", func() { pred.Stabilize() })
	if pred.Successor().Equal(dead) {
		t.Fatal("stabilize kept the dead head")
	}
	survivor := pred.Successor()
	for _, n := range ring {
		if n.Self().Equal(survivor) {
			expect("check-predecessor clears a dead one", func() { n.CheckPredecessor() })
			if !n.Predecessor().IsZero() {
				t.Fatal("dead predecessor not cleared")
			}
		}
	}
	expect("repair: an unvalidated sample retakes the head", func() {
		pred.RepairFromSamples([]NodeRef{dead}, nil)
	}, pred.Addr())
}

func TestPingDeadNode(t *testing.T) {
	net := transport.NewMemory(1)
	a, _ := New(net, "a", Config{})
	b, _ := New(net, "b", Config{})
	if !a.Ping(b.Self()) {
		t.Error("ping live node failed")
	}
	net.Kill("b")
	if a.Ping(b.Self()) {
		t.Error("ping dead node succeeded")
	}
}

func TestStaticRingMatchesProtocolRing(t *testing.T) {
	// The static wiring must equal what the protocol converges to.
	netA := transport.NewMemory(1)
	protoNodes, err := BuildRing(netA, addrs(16), Config{})
	if err != nil {
		t.Fatal(err)
	}
	netB := transport.NewMemory(1)
	staticNodes, err := BuildStaticRing(netB, addrs(16), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range protoNodes {
		p, s := protoNodes[i], staticNodes[i]
		if p.Addr() != s.Addr() {
			t.Fatalf("sort order differs at %d: %s vs %s", i, p.Addr(), s.Addr())
		}
		if !p.Successor().Equal(s.Successor()) {
			t.Errorf("%s successor: proto %s, static %s", p.Addr(), p.Successor().Addr, s.Successor().Addr)
		}
		if !p.Predecessor().Equal(s.Predecessor()) {
			t.Errorf("%s predecessor: proto %s, static %s", p.Addr(), p.Predecessor().Addr, s.Predecessor().Addr)
		}
	}
}

func TestLookupFromEveryNodeAgrees(t *testing.T) {
	_, nodes := staticRing(t, 40)
	key := ids.HashString("the-one-key")
	var owner NodeRef
	for i, n := range nodes {
		res, err := n.Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			owner = res.Node
		} else if !res.Node.Equal(owner) {
			t.Fatalf("node %s resolved %s, node 0 resolved %s", n.Addr(), res.Node.Addr, owner.Addr)
		}
	}
}

func TestChordOverTCP(t *testing.T) {
	tr := NewTCPHarness(t)
	defer tr.Close()
	a := tr.NewNode("a")
	b := tr.NewNode("b")
	c := tr.NewNode("c")
	if err := b.Join(a.Self()); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(a.Self()); err != nil {
		t.Fatal(err)
	}
	all := []*Node{a, b, c}
	StabilizeAll(all, 6)
	for _, n := range all {
		n.FixAllFingers()
	}
	if !Converged(all) {
		t.Fatal("TCP ring did not converge")
	}
	refs := refsOf(all)
	SortRefs(refs)
	for i := 0; i < 30; i++ {
		key := ids.HashString(fmt.Sprintf("tcp-%d", i))
		res, err := all[i%3].Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		if want := SuccessorOf(refs, key); !res.Node.Equal(want) {
			t.Fatalf("tcp lookup %s = %s, want %s", key.Short(), res.Node.Addr, want.Addr)
		}
	}
}

// NewTCPHarness builds Chord nodes over loopback TCP for tests.
type TCPHarness struct {
	t  testing.TB
	tr *transport.TCP
}

func NewTCPHarness(t testing.TB) *TCPHarness {
	return &TCPHarness{t: t, tr: transport.NewTCP()}
}

func (h *TCPHarness) NewNode(name string) *Node {
	// Two-phase: bind first to learn the port, then create the node on
	// that address. A placeholder handler forwards to the node once set.
	var n *Node
	addr, err := h.tr.RegisterAuto("127.0.0.1", func(from transport.Addr, req any) (any, error) {
		if n == nil {
			return nil, fmt.Errorf("node %s not ready", name)
		}
		return n.handleRPC(from, req)
	})
	if err != nil {
		h.t.Fatal(err)
	}
	n = newUnregistered(h.tr, addr, ids.Hash([]byte(addr)), Config{})
	return n
}

func (h *TCPHarness) Close() { h.tr.Close() }

// TestLookupAllocs pins a lookup on a static ring at one allocation:
// lookupVia boxes its request once for all its remote steps, and a
// routing step itself allocates nothing.
func TestLookupAllocs(t *testing.T) {
	_, nodes := staticRing(t, 256)
	keys := make([]ids.ID, 64)
	for i := range keys {
		keys[i] = ids.HashString(fmt.Sprintf("allocs-%d", i))
	}
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		if _, err := nodes[i%len(nodes)].Lookup(keys[i%len(keys)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg > 1 {
		t.Errorf("a lookup allocates %.2f times, want <= 1", avg)
	}
}

func BenchmarkLookup256(b *testing.B) {
	_, nodes := staticRing(b, 256)
	r := rand.New(rand.NewSource(1))
	keys := make([]ids.ID, 1024)
	for i := range keys {
		keys[i] = ids.HashString(fmt.Sprintf("bench-%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := nodes[r.Intn(len(nodes))]
		if _, err := n.Lookup(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}
