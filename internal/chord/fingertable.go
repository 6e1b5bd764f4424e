package chord

import (
	"sort"

	"peertrack/internal/ids"
)

// fingerTable stores the ids.Bits-entry Chord finger array run-length
// encoded: run j covers finger indices [lo[j], lo[j+1]) — the last run
// extends to ids.Bits — and every entry in a run equals ref[j]. The
// empty table (no runs) encodes all-zero fingers.
//
// The encoding exploits that finger i points at successor(self+2^i):
// consecutive starts resolve to the same node until 2^i crosses the
// next ring gap, so a converged N-node ring has only ~log2 N distinct
// fingers among the 160 slots. A flat [160]NodeRef array costs 6.4 KB
// per node — the dominant per-node memory at XL network sizes — while
// the runs cost ~40 bytes per distinct finger.
type fingerTable struct {
	lo  []uint8   // first finger index of each run, ascending; lo[0] == 0
	ref []NodeRef // run values, parallel to lo
}

// runOf returns the index of the run containing finger i. The table
// must be non-empty.
func (t *fingerTable) runOf(i int) int {
	return sort.Search(len(t.lo), func(j int) bool { return int(t.lo[j]) > i }) - 1
}

// get returns finger i.
func (t *fingerTable) get(i int) NodeRef {
	if len(t.lo) == 0 {
		return NodeRef{}
	}
	return t.ref[t.runOf(i)]
}

// set updates finger i.
func (t *fingerTable) set(i int, r NodeRef) { t.setRange(i, i+1, r) }

// setRange updates fingers [from, to), splitting and re-merging runs as
// needed.
func (t *fingerTable) setRange(from, to int, r NodeRef) {
	if from >= to || (len(t.lo) == 0 && r.IsZero()) {
		return
	}
	if len(t.lo) == 0 {
		t.lo = append(t.lo, 0)
		t.ref = append(t.ref, NodeRef{})
	}
	first, last := t.runOf(from), t.runOf(to-1)
	if first == last && t.ref[first].Equal(r) {
		return
	}
	// The runs below from stay, the one holding from keeps what it has
	// below it, and what the last run touched held resumes at to.
	resume := t.ref[last]
	if int(t.lo[first]) < from {
		first++
	}
	lo, ref := append(make([]uint8, 0, 2), uint8(from)), append(make([]NodeRef, 0, 2), r)
	if to < ids.Bits && (last+1 == len(t.lo) || int(t.lo[last+1]) > to) {
		lo, ref = append(lo, uint8(to)), append(ref, resume)
	}
	t.lo = append(t.lo[:first], append(lo, t.lo[last+1:]...)...)
	t.ref = append(t.ref[:first], append(ref, t.ref[last+1:]...)...)
	t.normalize()
}

// purge zeroes every finger equal to victim (a departed node).
func (t *fingerTable) purge(victim NodeRef) {
	changed := false
	for j := range t.ref {
		if t.ref[j].Equal(victim) {
			t.ref[j] = NodeRef{}
			changed = true
		}
	}
	if changed {
		t.normalize()
	}
}

// normalize merges adjacent runs with equal values in place.
func (t *fingerTable) normalize() {
	w := 0
	for j := 0; j < len(t.lo); j++ {
		if w > 0 && t.ref[w-1].Equal(t.ref[j]) {
			continue
		}
		t.lo[w], t.ref[w] = t.lo[j], t.ref[j]
		w++
	}
	for j := w; j < len(t.ref); j++ {
		t.ref[j] = NodeRef{} // release Addr strings
	}
	t.lo, t.ref = t.lo[:w], t.ref[:w]
	if w == 1 && t.ref[0].IsZero() {
		t.lo, t.ref = t.lo[:0], t.ref[:0]
	}
}

// descend calls fn for each distinct finger value from the top of the
// table downward, skipping zero entries, and stops early when fn
// returns false. This visits the same values in the same order as a
// descending scan of the flat array visiting each run's first (highest)
// occurrence, which is what closest-preceding routing needs.
func (t *fingerTable) descend(fn func(NodeRef) bool) {
	for j := len(t.ref) - 1; j >= 0; j-- {
		if t.ref[j].IsZero() {
			continue
		}
		if !fn(t.ref[j]) {
			return
		}
	}
}

// replace installs exactly the given runs, copying them into
// right-sized backing arrays (bulk wiring builds runs in a shared
// scratch buffer; the copy avoids carrying append slack on every node).
func (t *fingerTable) replace(lo []uint8, ref []NodeRef) {
	t.lo = append(make([]uint8, 0, len(lo)), lo...)
	t.ref = append(make([]NodeRef, 0, len(ref)), ref...)
}
