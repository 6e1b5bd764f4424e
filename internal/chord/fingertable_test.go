package chord

import (
	"fmt"
	"math/rand"
	"testing"

	"peertrack/internal/ids"
	"peertrack/internal/transport"
)

// TestFingerTableMatchesFlatArray drives the run-length table and a
// flat reference array through the same randomized set/setRange/purge
// sequence and demands identical reads throughout.
func TestFingerTableMatchesFlatArray(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mkRef := func(k int) NodeRef {
		if k == 0 {
			return NodeRef{}
		}
		a := transport.Addr(fmt.Sprintf("n-%02d", k))
		return NodeRef{ID: ids.Hash([]byte(a)), Addr: a}
	}
	var flat [ids.Bits]NodeRef
	var ft fingerTable
	check := func(step int) {
		for i := 0; i < ids.Bits; i++ {
			if got := ft.get(i); !got.Equal(flat[i]) {
				t.Fatalf("step %d: finger %d = %v, want %v (runs %d)", step, i, got, flat[i], len(ft.ref))
			}
		}
		// Runs must be normalized: no adjacent equal values.
		for j := 1; j < len(ft.ref); j++ {
			if ft.ref[j].Equal(ft.ref[j-1]) {
				t.Fatalf("step %d: unmerged adjacent runs at %d", step, j)
			}
		}
	}
	for step := 0; step < 5000; step++ {
		if rng.Intn(10) == 0 {
			victim := mkRef(1 + rng.Intn(12))
			for i := range flat {
				if flat[i].Equal(victim) {
					flat[i] = NodeRef{}
				}
			}
			ft.purge(victim)
		} else {
			// One finger nine times in ten, else a range (FixFingers).
			i := rng.Intn(ids.Bits)
			to := i + 1
			if rng.Intn(10) == 0 {
				to = i + rng.Intn(ids.Bits+1-i)
			}
			r := mkRef(rng.Intn(13))
			for j := i; j < to; j++ {
				flat[j] = r
			}
			ft.setRange(i, to, r)
		}
		if step%50 == 0 {
			check(step)
		}
	}
	check(5000)
}

// TestFingerTableDescendOrder pins descend's contract: the same value
// sequence as a top-down scan of the flat array that reports each run's
// first occurrence.
func TestFingerTableDescendOrder(t *testing.T) {
	var ft fingerTable
	a := NodeRef{ID: ids.HashString("a"), Addr: "a"}
	b := NodeRef{ID: ids.HashString("b"), Addr: "b"}
	ft.set(0, a)
	ft.set(1, b)
	ft.set(2, b)
	ft.set(100, a)
	var got []transport.Addr
	ft.descend(func(r NodeRef) bool {
		got = append(got, r.Addr)
		return true
	})
	want := []transport.Addr{"a", "b", "a"}
	if len(got) != len(want) {
		t.Fatalf("descend visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("descend visited %v, want %v", got, want)
		}
	}
}

// TestWireStaticRingFingers verifies the monotone-scan bulk wiring
// against the definitional per-finger binary search.
func TestWireStaticRingFingers(t *testing.T) {
	for _, m := range []int{1, 2, 3, 17, 64} {
		net := transport.NewMemory(1)
		addrs := make([]transport.Addr, m)
		for i := range addrs {
			addrs[i] = transport.Addr(fmt.Sprintf("ring-%03d", i))
		}
		nodes, err := BuildStaticRing(net, addrs, Config{})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		refs := make([]NodeRef, m)
		for i, n := range nodes {
			refs[i] = n.Self()
		}
		for _, n := range nodes {
			for f := 0; f < ids.Bits; f++ {
				want := refs[successorIndex(refs, n.ID().AddPow2(f))]
				if got := n.fingers.get(f); !got.Equal(want) {
					t.Fatalf("m=%d node %s finger %d: got %s want %s", m, n.Addr(), f, got.Addr, want.Addr)
				}
			}
		}
	}
}
