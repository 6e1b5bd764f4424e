// Package netsize estimates the number of nodes Nn in the overlay —
// the input to the paper's optimal-prefix-length formula
// Lp = ⌈log2(Nn · log2 Nn)⌉. The paper notes Nn cannot be known exactly
// under churn and points to estimation algorithms; this package
// provides the one a node runs: DensityEstimate, a free, purely local
// estimator that inverts the identifier-space density of a node's
// successor list. With a successor list of length r spanning a ring arc
// d, N ≈ r · 2^160/d.
package netsize

import (
	"math"
	"math/big"

	"peertrack/internal/chord"
	"peertrack/internal/ids"
)

var ringSize = new(big.Float).SetFloat64(math.Pow(2, float64(ids.Bits)))

// DensityEstimate estimates network size from a node and its successor
// list: r successors covering a fraction f of the ring imply N ≈ r/f.
// It costs nothing (uses only local routing state) and is accurate to
// within a small factor, which is all the Lp formula needs — the paper
// observes "Lp increases much slower than Nn", so coarse estimates
// suffice.
func DensityEstimate(self chord.NodeRef, successors []chord.NodeRef) float64 {
	if len(successors) == 0 || successors[0].Equal(self) {
		return 1
	}
	// Arc from self to the last distinct successor.
	last := successors[len(successors)-1]
	if last.Equal(self) {
		return 1
	}
	arc := ids.Distance(self.ID, last.ID)
	arcF := new(big.Float).SetInt(new(big.Int).SetBytes(arc[:]))
	if arcF.Sign() == 0 {
		return 1
	}
	frac, _ := new(big.Float).Quo(arcF, ringSize).Float64()
	if frac <= 0 {
		return 1
	}
	est := float64(len(successors)) / frac
	if est < 1 {
		est = 1
	}
	return est
}
