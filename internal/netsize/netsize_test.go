package netsize

import (
	"fmt"
	"math"
	"testing"

	"peertrack/internal/chord"
	"peertrack/internal/transport"
)

func TestDensityEstimateAccuracy(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		net := transport.NewMemory(1)
		addrs := make([]transport.Addr, n)
		for i := range addrs {
			addrs[i] = transport.Addr(fmt.Sprintf("node-%03d", i))
		}
		nodes, err := chord.BuildStaticRing(net, addrs, chord.Config{SuccessorListLen: 16})
		if err != nil {
			t.Fatal(err)
		}
		// Geometric mean of per-node estimates should be within 2x.
		logSum := 0.0
		for _, node := range nodes {
			est := DensityEstimate(node.Self(), node.Successors())
			logSum += math.Log(est)
		}
		geo := math.Exp(logSum / float64(len(nodes)))
		if geo < float64(n)/2 || geo > float64(n)*2 {
			t.Errorf("n=%d: geometric-mean estimate %.1f outside [n/2, 2n]", n, geo)
		}
	}
}

func TestDensityEstimateSingleNode(t *testing.T) {
	net := transport.NewMemory(1)
	n, _ := chord.New(net, "solo", chord.Config{})
	if est := DensityEstimate(n.Self(), n.Successors()); est != 1 {
		t.Errorf("single-node estimate = %v", est)
	}
}
