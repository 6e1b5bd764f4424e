package core

import (
	"math"
	"sync"

	"peertrack/internal/ids"
)

// Scheme selects the prefix-length formula studied in Section V-C.
type Scheme int

const (
	// Scheme1 is Lp = ⌈log2 Nn⌉ — cheapest indexing, poorest balance.
	Scheme1 Scheme = 1
	// Scheme2 is Lp = ⌈log2 Nn + log2 log2 Nn⌉ — the paper's choice:
	// with m = Nn·log2 Nn groups, the probability δ that a node indexes
	// at least one group tends to 1 (Equation 5).
	Scheme2 Scheme = 2
	// Scheme3 is Lp = ⌈2·log2 Nn⌉ — best balance, indexing cost grows
	// roughly with the square of the node count.
	Scheme3 Scheme = 3
)

// String names the scheme as the paper does.
func (s Scheme) String() string {
	switch s {
	case Scheme1:
		return "Scheme 1 (log2 N)"
	case Scheme2:
		return "Scheme 2 (log2 N + log2 log2 N)"
	case Scheme3:
		return "Scheme 3 (2 log2 N)"
	default:
		return "unknown scheme"
	}
}

// PrefixLen evaluates the scheme at network size nn, clamped to
// [lmin, ids.MaxKeyLen], the longest prefix a group key holds. nn below
// 2 yields lmin (bootstrap regime).
func (s Scheme) PrefixLen(nn float64, lmin int) int {
	if lmin < 0 {
		lmin = 0
	}
	if nn < 2 {
		return lmin
	}
	log := math.Log2(nn)
	var v float64
	switch s {
	case Scheme1:
		v = log
	case Scheme3:
		v = 2 * log
	default: // Scheme2
		v = log
		if log > 1 {
			v += math.Log2(log)
		}
	}
	lp := int(math.Ceil(v))
	if lp < lmin {
		lp = lmin
	}
	if lp > ids.MaxKeyLen {
		lp = ids.MaxKeyLen
	}
	return lp
}

// PrefixManager is one peer's view of the global prefix length Lp,
// derived from its network-size estimate. The paper recalculates Lp "at
// a relatively long interval" because it grows much slower than Nn;
// SetNetworkSize is that recalculation point, and LpRange (every length
// that has been current) bounds where refresh and lookup look for the
// grouping inconsistencies a change leaves. Every peer owns its manager
// (NewPeer builds it).
type PrefixManager struct {
	mu     sync.Mutex
	scheme Scheme
	lp     int
	// pinned: the size is set from outside, by an operator's pin or, in
	// the simulator, by the network fed the true node count; no refresh
	// replaces it with a density estimate.
	pinned bool
	// minEver/maxEver track the range of prefix lengths that have ever
	// been current. Index records can only exist at those levels (or
	// below maxEver via Data Triangle delegation), so refresh and
	// lookup probe only this range — the concrete meaning of the
	// paper's loop guard "while there exists gateway node for prefix
	// p′". minEver is never below LMin.
	minEver int
	maxEver int
}

// LMin is L_min, the bootstrap floor of Section IV-A1: no prefix is
// shorter, so a network of a few nodes still spreads its objects over
// 2³ = 8 groups rather than indexing them all at one or two gateways.
const LMin = 3

// newPrefixManager creates a manager with the given scheme and network
// size. A size nn > 0 is pinned: only SetNetworkSize moves it. With
// nn ≤ 0 the manager starts at L_min and each refresh of its peer
// estimates the size from successor-list density
// (chord.Node.SizeEstimate).
func newPrefixManager(scheme Scheme, nn float64) *PrefixManager {
	if scheme < Scheme1 || scheme > Scheme3 {
		scheme = Scheme2
	}
	pm := &PrefixManager{scheme: scheme, pinned: nn > 0}
	pm.lp = scheme.PrefixLen(nn, LMin)
	pm.minEver, pm.maxEver = pm.lp, pm.lp
	return pm
}

// Lp returns the current global prefix length.
func (pm *PrefixManager) Lp() int {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.lp
}

// SetNetworkSize recomputes Lp for a new network-size estimate and
// returns (oldLp, newLp).
func (pm *PrefixManager) SetNetworkSize(nn float64) (int, int) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	old := pm.lp
	pm.lp = pm.scheme.PrefixLen(nn, LMin)
	pm.minEver, pm.maxEver = min(pm.minEver, pm.lp), max(pm.maxEver, pm.lp)
	return old, pm.lp
}

// LpRange returns the historical [min, max] prefix lengths that have
// been current since bootstrap.
func (pm *PrefixManager) LpRange() (int, int) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.minEver, pm.maxEver
}

// inherit takes o's Lp and range: a peer that joins a simulated network
// starts where its bootstrap is.
func (pm *PrefixManager) inherit(o *PrefixManager) {
	o.mu.Lock()
	lp, lo, hi := o.lp, o.minEver, o.maxEver
	o.mu.Unlock()
	pm.mu.Lock()
	pm.lp, pm.minEver, pm.maxEver = lp, lo, hi
	pm.mu.Unlock()
}
