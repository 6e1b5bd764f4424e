package chord

import (
	"math"
	"math/big"

	"peertrack/internal/ids"
)

var ringSize = new(big.Float).SetFloat64(math.Pow(2, float64(ids.Bits)))

// SizeEstimate estimates the number of nodes Nn in the ring, the input
// to the paper's optimal-prefix-length formula Lp = ⌈log2(Nn · log2 Nn)⌉.
// The paper notes Nn cannot be known exactly under churn and points to
// estimation algorithms; this one inverts the identifier-space density
// of the successor list: r successors covering a fraction f of the ring
// imply N ≈ r/f. It costs nothing (local routing state only) and is
// accurate to within a small factor, which is all the Lp formula needs —
// the paper observes "Lp increases much slower than Nn", so coarse
// estimates suffice. A ring of one, or a list that wraps back to this
// node, answers 1.
func (n *Node) SizeEstimate() float64 {
	n.mu.RLock()
	first, last, r := n.successors[0], n.successors[len(n.successors)-1], len(n.successors)
	n.mu.RUnlock()
	if first.Equal(n.self) || last.Equal(n.self) {
		return 1
	}
	arc := ids.Distance(n.self.ID, last.ID)
	arcF := new(big.Float).SetInt(new(big.Int).SetBytes(arc[:]))
	frac, _ := new(big.Float).Quo(arcF, ringSize).Float64()
	if frac <= 0 {
		return 1
	}
	est := float64(r) / frac
	if est < 1 {
		est = 1
	}
	return est
}
