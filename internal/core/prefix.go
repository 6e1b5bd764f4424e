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

// PrefixManager derives the current global prefix length Lp from the
// network-size estimate. The paper recalculates Lp "at a
// relatively long interval" because it grows much slower than Nn;
// SetNetworkSize is that recalculation point, and ChangedSince lets
// gateways detect grouping inconsistencies to repair.
type PrefixManager struct {
	mu     sync.RWMutex
	scheme Scheme
	lmin   int
	lp     int
	// pinned: the size is set from outside, by an operator's pin or, in
	// the simulator, by the shared manager fed the true node count; no
	// peer's refresh replaces it with a density estimate.
	pinned bool
	// minEver/maxEver track the range of prefix lengths that have ever
	// been current. Index records can only exist at those levels (or
	// below maxEver via Data Triangle delegation), so refresh and
	// lookup probe only this range — the concrete meaning of the
	// paper's loop guard "while there exists gateway node for prefix
	// p′".
	minEver int
	maxEver int
	// gateways memoises GatewayID by packed prefix: every peer of a
	// simulated network shares one manager, so a prefix is hashed once
	// rather than on every peer's cache miss. It is emptied whenever the
	// Lp range moves and holds at most maxGatewayMemo ids; past that a
	// prefix is hashed each time.
	gateways map[ids.PrefixKey]ids.ID
}

// LMin is L_min, the bootstrap floor of Section IV-A1: no prefix is
// shorter, so a network of a few nodes still spreads its objects over
// 2³ = 8 groups rather than indexing them all at one or two gateways.
// The simulated network and a live node both start their prefix
// manager at it.
const LMin = 3

// maxGatewayMemo bounds the GatewayID memo: the 8 192 groups of Lp 13
// (the paper's 512 nodes, Scheme 2) fit twice over.
const maxGatewayMemo = 1 << 14

// NewPrefixManager creates a manager with the given scheme, minimum
// prefix length L_min (the bootstrap floor of Section IV-A1), and
// network size. A size nn > 0 is pinned: only SetNetworkSize moves it.
// With nn ≤ 0 the manager starts at L_min and each refresh of its peer
// estimates the size from overlay density.
func NewPrefixManager(scheme Scheme, lmin int, nn float64) *PrefixManager {
	if scheme < Scheme1 || scheme > Scheme3 {
		scheme = Scheme2
	}
	pm := &PrefixManager{scheme: scheme, lmin: lmin, pinned: nn > 0}
	pm.lp = scheme.PrefixLen(nn, lmin)
	pm.minEver, pm.maxEver = pm.lp, pm.lp
	return pm
}

// Lp returns the current global prefix length.
func (pm *PrefixManager) Lp() int {
	pm.mu.RLock()
	defer pm.mu.RUnlock()
	return pm.lp
}

// LMin returns the configured minimum prefix length.
func (pm *PrefixManager) LMin() int {
	pm.mu.RLock()
	defer pm.mu.RUnlock()
	return pm.lmin
}

// SetNetworkSize recomputes Lp for a new network-size estimate and
// returns (oldLp, newLp).
func (pm *PrefixManager) SetNetworkSize(nn float64) (int, int) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	old := pm.lp
	pm.lp = pm.scheme.PrefixLen(nn, pm.lmin)
	if pm.lp < pm.minEver || pm.lp > pm.maxEver {
		// The range moved: the GatewayID memo goes with it.
		pm.minEver, pm.maxEver = min(pm.minEver, pm.lp), max(pm.maxEver, pm.lp)
		pm.gateways = nil
	}
	return old, pm.lp
}

// GatewayID is key.GatewayID(), memoised (see gateways).
func (pm *PrefixManager) GatewayID(key ids.PrefixKey) ids.ID {
	pm.mu.RLock()
	id, ok := pm.gateways[key]
	pm.mu.RUnlock()
	if ok {
		return id
	}
	id = key.GatewayID()
	pm.mu.Lock()
	if len(pm.gateways) < maxGatewayMemo {
		if pm.gateways == nil {
			pm.gateways = make(map[ids.PrefixKey]ids.ID)
		}
		pm.gateways[key] = id
	}
	pm.mu.Unlock()
	return id
}

// LpRange returns the historical [min, max] prefix lengths that have
// been current since bootstrap.
func (pm *PrefixManager) LpRange() (int, int) {
	pm.mu.RLock()
	defer pm.mu.RUnlock()
	return pm.minEver, pm.maxEver
}

// GroupOf returns the current-length prefix group of an object id.
func (pm *PrefixManager) GroupOf(id ids.ID) ids.PrefixKey {
	return ids.KeyOf(id, pm.Lp())
}
