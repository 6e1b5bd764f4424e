package chord

import (
	"fmt"
	"math"
	"testing"

	"peertrack/internal/transport"
)

func TestDensityEstimateAccuracy(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		net := transport.NewMemory(1)
		addrs := make([]transport.Addr, n)
		for i := range addrs {
			addrs[i] = transport.Addr(fmt.Sprintf("node-%03d", i))
		}
		nodes, err := BuildStaticRing(net, addrs, Config{SuccessorListLen: 16})
		if err != nil {
			t.Fatal(err)
		}
		// Geometric mean of per-node estimates should be within 2x.
		logSum := 0.0
		for _, node := range nodes {
			logSum += math.Log(node.SizeEstimate())
		}
		geo := math.Exp(logSum / float64(len(nodes)))
		if geo < float64(n)/2 || geo > float64(n)*2 {
			t.Errorf("n=%d: geometric-mean estimate %.1f outside [n/2, 2n]", n, geo)
		}
	}
}

// TestDensityEstimateSingleNode checks the answer of 1 for a ring of
// one, and for a successor list that wraps back to the node itself, as
// a node of a ring smaller than its list can hold mid-repair.
func TestDensityEstimateSingleNode(t *testing.T) {
	net := transport.NewMemory(1)
	n, _ := New(net, "solo", Config{})
	if est := n.SizeEstimate(); est != 1 {
		t.Errorf("single-node estimate = %v", est)
	}
	b, _ := New(net, "b", Config{})
	c, _ := New(net, "c", Config{})
	n.successors = []NodeRef{b.Self(), c.Self(), n.Self()}
	if est := n.SizeEstimate(); est != 1 {
		t.Errorf("estimate from a list that wraps back to self = %v", est)
	}
}
