package chord

import (
	"fmt"
	"math"
	"testing"

	"peertrack/internal/ids"
	"peertrack/internal/transport"
)

// placed builds nodes at the given ring positions on one memory
// transport, each a ring of one until the test wires it.
func placed(t *testing.T, at ...uint64) (*transport.Memory, []*Node) {
	t.Helper()
	net := transport.NewMemory(1)
	nodes := make([]*Node, len(at))
	for i, v := range at {
		n, err := NewWithID(net, transport.Addr(fmt.Sprintf("n%d", v)), ids.FromUint64(v), Config{})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	return net, nodes
}

// TestStabilizeWalksThePredecessorChain: a node whose successor has a
// chain of closer predecessors behind it adopts the nearest in one
// round, not one link per round; a link that does not answer ends the
// walk on the last live one without counting as a fail-over; and a node
// without a predecessor takes the one the chain's end had before it.
func TestStabilizeWalksThePredecessorChain(t *testing.T) {
	chain := func() (*transport.Memory, []*Node) {
		net, nodes := placed(t, 10, 20, 30, 40, 50)
		for i, n := range nodes[1:] {
			n.pred = nodes[i].Self() // 50 → 40 → 30 → 20 → 10
			n.successors = []NodeRef{nodes[(i+2)%len(nodes)].Self()}
		}
		nodes[0].successors = []NodeRef{nodes[4].Self()}
		return net, nodes
	}

	net, nodes := chain()
	a := nodes[0]
	if err := a.Stabilize(); err != nil {
		t.Fatal(err)
	}
	if got := a.Successor(); !got.Equal(nodes[1].Self()) {
		t.Errorf("after one round the successor of 10 is %s, want n20 at the chain's end", got.Addr)
	}
	if got := net.Stats().ByType()["chord.getStateReq"]; got != 4 {
		t.Errorf("the round asked %d nodes for their state, want the chain's 4", got)
	}
	if a.RingChanges() != 1 || a.Repairing() {
		t.Errorf("ring changes %d, repairing %v; want one splice and no repair", a.RingChanges(), a.Repairing())
	}

	net, nodes = chain()
	a = nodes[0]
	net.Kill(nodes[2].Addr()) // 30: the walk reaches 40 and stops there
	if err := a.Stabilize(); err != nil {
		t.Fatal(err)
	}
	if got := a.Successor(); !got.Equal(nodes[3].Self()) {
		t.Errorf("with 30 dead the successor of 10 is %s, want n40, the last live link", got.Addr)
	}
	if a.RingChanges() != 1 || a.Repairing() {
		t.Errorf("ring changes %d, repairing %v; a dead link in the chain is a splice short, not a fail-over", a.RingChanges(), a.Repairing())
	}

	// A joiner at 25 placed by the walk: its successor is 30, and 20, whom
	// 30 had before it, is its first predecessor.
	net, nodes = chain()
	x, err := NewWithID(net, "n25", ids.FromUint64(25), Config{})
	if err != nil {
		t.Fatal(err)
	}
	x.successors = []NodeRef{nodes[4].Self()}
	if err := x.Stabilize(); err != nil {
		t.Fatal(err)
	}
	if s, p := x.Successor(), x.Predecessor(); !s.Equal(nodes[2].Self()) || !p.Equal(nodes[1].Self()) {
		t.Errorf("joiner at 25 has successor %s and predecessor %s, want n30 and n20", s.Addr, p.Addr)
	}
	if got := nodes[2].Predecessor(); !got.Equal(x.Self()) {
		t.Errorf("30 has predecessor %s after the joiner's notify, want n25", got.Addr)
	}
}

// TestFixFingersSkipsTheSuccessorRun: on a converged ring with empty
// tables, a pass of the cycle spends no call on a finger whose start
// lies in (self, successor], takes about log2 n calls, not ids.Bits, and
// leaves exactly the table WireStaticRing computes.
func TestFixFingersSkipsTheSuccessorRun(t *testing.T) {
	const size = 16
	budget := int(math.Log2(size)) + 2
	_, nodes := staticRing(t, size)
	total := 0
	for _, n := range nodes {
		want := n.fingers
		n.fingers = fingerTable{}
		run := n.covers(n.Successor())

		calls := 0
		for done := false; !done; calls++ {
			if err := n.FixFingers(); err != nil {
				t.Fatal(err)
			}
			done = n.nextFinger >= ids.Bits
			if calls > 0 {
				continue
			}
			// The first call fills the run and already looks up the
			// finger above it.
			for i := 0; i < run; i++ {
				if !n.fingers.get(i).Equal(n.Successor()) {
					t.Fatalf("%s: finger %d of the successor run [0,%d) is %s after the first call", n.Addr(), i, run, n.fingers.get(i).Addr)
				}
			}
			if n.nextFinger <= run {
				t.Errorf("%s: the first call left the cycle at finger %d, inside the successor run [0,%d)", n.Addr(), n.nextFinger, run)
			}
		}
		total += calls
		if calls > budget {
			t.Errorf("%s: a pass took %d calls, want ≤ log2 n + 2 = %d", n.Addr(), calls, budget)
		}
		for i := 0; i < ids.Bits; i++ {
			if got := n.fingers.get(i); !got.Equal(want.get(i)) {
				t.Fatalf("%s: finger %d is %s after a pass, WireStaticRing has %s", n.Addr(), i, got.Addr, want.get(i).Addr)
			}
		}
	}
	t.Logf("%d nodes: %.1f calls a pass (one per finger at the parent: %d)", size, float64(total)/size, ids.Bits)
}
