package kademlia

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"peertrack/internal/ids"
	"peertrack/internal/overlay"
	"peertrack/internal/transport"
)

func addrs(n int) []transport.Addr {
	out := make([]transport.Addr, n)
	for i := range out {
		out[i] = transport.Addr(fmt.Sprintf("kad-%03d", i))
	}
	return out
}

func staticNet(t testing.TB, n int) (*transport.Memory, []*Node) {
	t.Helper()
	net := transport.NewMemory(1)
	nodes := make([]*Node, 0, n)
	for _, a := range addrs(n) {
		node, err := New(net, a, Config{})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	WireStaticTables(nodes)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID().Less(nodes[j].ID()) })
	return net, nodes
}

func refsOf(nodes []*Node) []overlay.NodeRef {
	refs := make([]overlay.NodeRef, len(nodes))
	for i, n := range nodes {
		refs[i] = n.Self()
	}
	return refs
}

func TestXorLess(t *testing.T) {
	target := ids.FromUint64(8)
	a, b := ids.FromUint64(9), ids.FromUint64(12) // distances 1 and 4
	if !xorLess(target, a, b) {
		t.Error("9 should be closer to 8 than 12")
	}
	if xorLess(target, b, a) {
		t.Error("12 should not be closer to 8 than 9")
	}
	if xorLess(target, a, a) {
		t.Error("xorLess must be irreflexive")
	}
}

func TestTableInsertAndCap(t *testing.T) {
	self := overlay.NodeRef{ID: ids.FromUint64(0), Addr: "self"}
	tb := newTable(self)
	// Fill one bucket beyond K: ids sharing CPL with distinct low bits.
	inserted := 0
	for i := 1; i <= K+4; i++ {
		id := ids.FromUint64(uint64(0x100 + i)) // same bucket (CPL fixed by 0x100 bit)
		if tb.insert(overlay.NodeRef{ID: id, Addr: transport.Addr(fmt.Sprintf("n%d", i))}) {
			inserted++
		}
	}
	if inserted != K {
		t.Fatalf("inserted = %d, want %d", inserted, K)
	}
	// Duplicate insert refreshes, not grows.
	id := ids.FromUint64(0x101)
	if !tb.insert(overlay.NodeRef{ID: id, Addr: "n1"}) {
		t.Error("refresh of existing contact failed")
	}
	if tb.size() != K {
		t.Errorf("size = %d", tb.size())
	}
	// Self is never inserted.
	if tb.insert(self) {
		t.Error("inserted self")
	}
}

func TestTableRemove(t *testing.T) {
	self := overlay.NodeRef{ID: ids.FromUint64(0), Addr: "self"}
	tb := newTable(self)
	ref := overlay.NodeRef{ID: ids.FromUint64(5), Addr: "n5"}
	tb.insert(ref)
	tb.remove(ref)
	if tb.size() != 0 {
		t.Error("remove failed")
	}
}

func TestTableClosestSorted(t *testing.T) {
	self := overlay.NodeRef{ID: ids.HashString("self"), Addr: "self"}
	tb := newTable(self)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		tb.insert(overlay.NodeRef{
			ID:   ids.HashString(fmt.Sprintf("c%d", r.Int63())),
			Addr: transport.Addr(fmt.Sprintf("c%d", i)),
		})
	}
	target := ids.HashString("target")
	got := tb.closest(target, 10)
	for i := 1; i < len(got); i++ {
		if xorLess(target, got[i].ID, got[i-1].ID) {
			t.Fatal("closest not sorted by XOR distance")
		}
	}
}

func TestStaticLookupFindsXorClosest(t *testing.T) {
	_, nodes := staticNet(t, 64)
	refs := refsOf(nodes)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		key := ids.HashString(fmt.Sprintf("key-%d", r.Int63()))
		want := ClosestOf(refs, key)
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
	_, nodes := staticNet(t, 256)
	r := rand.New(rand.NewSource(3))
	total, max := 0, 0
	const q = 200
	for i := 0; i < q; i++ {
		key := ids.HashString(fmt.Sprintf("h%d", i))
		res, err := nodes[r.Intn(len(nodes))].Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		total += res.Hops
		if res.Hops > max {
			max = res.Hops
		}
	}
	if avg := float64(total) / q; avg > 14 {
		t.Errorf("average hops = %.1f for 256 nodes", avg)
	}
	if max > 40 {
		t.Errorf("max hops = %d", max)
	}
}

func TestOwnsExactlyOneNode(t *testing.T) {
	_, nodes := staticNet(t, 48)
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		key := ids.HashString(fmt.Sprintf("own-%d", r.Int63()))
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

func TestJoinedNetworkLookups(t *testing.T) {
	net := transport.NewMemory(1)
	var nodes []*Node
	for i := 0; i < 24; i++ {
		n, err := New(net, transport.Addr(fmt.Sprintf("j%02d", i)), Config{})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		if i > 0 {
			if err := n.Join(nodes[0].Self()); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A couple of refresh rounds let early joiners learn late ones.
	for _, n := range nodes {
		n.RefreshBuckets(6)
	}
	refs := refsOf(nodes)
	for i := 0; i < 150; i++ {
		key := ids.HashString(fmt.Sprintf("jk%d", i))
		want := ClosestOf(refs, key)
		res, err := nodes[i%len(nodes)].Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Node.Equal(want) {
			t.Fatalf("lookup %s = %s, want %s", key.Short(), res.Node.Addr, want.Addr)
		}
	}
}

func TestJoinThroughSelfFails(t *testing.T) {
	net := transport.NewMemory(1)
	n, _ := New(net, "solo", Config{})
	if err := n.Join(n.Self()); err == nil {
		t.Fatal("join through self succeeded")
	}
}

func TestLookupSurvivesDeadContacts(t *testing.T) {
	net, nodes := staticNet(t, 32)
	refs := refsOf(nodes)
	// Kill a quarter of the nodes.
	dead := map[transport.Addr]bool{}
	for i := 0; i < 8; i++ {
		net.Kill(nodes[i*4].Addr())
		dead[nodes[i*4].Addr()] = true
	}
	liveRefs := make([]overlay.NodeRef, 0, len(refs))
	for _, r := range refs {
		if !dead[r.Addr] {
			liveRefs = append(liveRefs, r)
		}
	}
	var asker *Node
	for _, n := range nodes {
		if !dead[n.Addr()] {
			asker = n
			break
		}
	}
	ok := 0
	for i := 0; i < 100; i++ {
		key := ids.HashString(fmt.Sprintf("dk%d", i))
		res, err := asker.Lookup(key)
		if err != nil {
			continue
		}
		if dead[res.Node.Addr] {
			continue // resolved to a dead node: caller will detect on use
		}
		if res.Node.Equal(ClosestOf(liveRefs, key)) {
			ok++
		}
	}
	if ok < 60 {
		t.Fatalf("only %d/100 lookups found the live closest node", ok)
	}
}

func TestNeighborsAreClosest(t *testing.T) {
	_, nodes := staticNet(t, 40)
	refs := refsOf(nodes)
	n := nodes[7]
	nb := n.Neighbors()
	if len(nb) != K {
		t.Fatalf("neighbors = %d", len(nb))
	}
	// Brute force: K closest other nodes to n.
	others := make([]overlay.NodeRef, 0, len(refs)-1)
	for _, r := range refs {
		if r.Addr != n.Addr() {
			others = append(others, r)
		}
	}
	sortByDistance(n.ID(), others)
	want := map[transport.Addr]bool{}
	for _, r := range others[:K] {
		want[r.Addr] = true
	}
	for _, r := range nb {
		if !want[r.Addr] {
			t.Fatalf("neighbor %s not among the %d closest", r.Addr, K)
		}
	}
}

func TestNextHopProgress(t *testing.T) {
	_, nodes := staticNet(t, 32)
	key := ids.HashString("progress")
	n := nodes[0]
	hop, done := n.NextHop(key)
	if done {
		if !n.Owns(key) {
			t.Fatal("done without ownership")
		}
		return
	}
	// The hop must be strictly closer to the key than this node.
	if !xorLess(key, hop.ID, n.ID()) {
		t.Fatal("next hop not closer to key")
	}
}

func BenchmarkKademliaLookup256(b *testing.B) {
	_, nodes := staticNet(b, 256)
	r := rand.New(rand.NewSource(1))
	keys := make([]ids.ID, 512)
	for i := range keys {
		keys[i] = ids.HashString(fmt.Sprintf("bench-%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nodes[r.Intn(len(nodes))].Lookup(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}
