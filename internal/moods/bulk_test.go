package moods

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// randomObservations draws n observations of a few objects whose capture
// times come from `times` distinct values: few values, many ties. The
// node numbers the draw, so two observations are never equal and a tie
// broken the wrong way shows.
func randomObservations(r *rand.Rand, n, objects, times int) []Observation {
	out := make([]Observation, n)
	for i := range out {
		out[i] = Observation{
			Object: ObjectID(fmt.Sprintf("o%d", r.Intn(objects))),
			Node:   NodeName(fmt.Sprintf("n%d", i)),
			At:     time.Duration(r.Intn(times)-times/2) * time.Millisecond,
		}
	}
	return out
}

// TestSortByTimeIsTheStableSort: on 10 000 seeded inputs weighted towards
// ties — one capture time, two, reversed, already sorted, few values,
// many — SortByTime leaves exactly what slices.SortStableFunc leaves.
func TestSortByTimeIsTheStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	for trial := 0; trial < 10000; trial++ {
		n := r.Intn(200)
		in := randomObservations(r, n, 5, []int{1, 2, 3, 10, n + 1, 1 << 20}[trial%6])
		switch trial % 7 {
		case 1:
			slices.SortStableFunc(in, byAt)
		case 2:
			slices.SortStableFunc(in, byAt)
			slices.Reverse(in)
		}
		want := slices.Clone(in)
		slices.SortStableFunc(want, byAt)
		SortByTime(in)
		if !slices.Equal(in, want) {
			t.Fatalf("trial %d (%d observations): SortByTime differs from the stable sort", trial, n)
		}
	}
}

// TestSortByTimeSortedInputAllocatesNothing: Generate's output handed to
// a second sort, or to ScheduleAll, costs a scan.
func TestSortByTimeSortedInputAllocatesNothing(t *testing.T) {
	in := randomObservations(rand.New(rand.NewSource(1)), 1000, 5, 10)
	SortByTime(in)
	if avg := testing.AllocsPerRun(20, func() { SortByTime(in) }); avg != 0 {
		t.Errorf("SortByTime(sorted) allocates %.1f/op, want 0", avg)
	}
}

// sameStore fails unless a and b answer alike: the counts, the object
// list, and L, TR and the full trace of every object of either store.
func sameStore(t *testing.T, a, b *HistoryStore) {
	t.Helper()
	if a.Len() != b.Len() || a.Objects() != b.Objects() || !slices.Equal(a.ObjectIDs(), b.ObjectIDs()) {
		t.Fatalf("Len %d/%d, Objects %d/%d, or the object lists differ", a.Len(), b.Len(), a.Objects(), b.Objects())
	}
	for _, o := range a.ObjectIDs() {
		if !a.FullTrace(o).Equal(b.FullTrace(o)) {
			t.Fatalf("history of %s differs", o)
		}
		for _, at := range []time.Duration{-time.Hour, -2 * time.Millisecond, 0, time.Millisecond, time.Hour} {
			la, _ := a.Locate(o, at)
			lb, _ := b.Locate(o, at)
			ta, _ := a.Trace(o, at, at+3*time.Millisecond)
			tb, _ := b.Trace(o, at, at+3*time.Millisecond)
			if la != lb || !ta.Equal(tb) {
				t.Fatalf("L or TR of %s at %v differs", o, at)
			}
		}
	}
}

func recordEach(h *HistoryStore, obss []Observation) *HistoryStore {
	for _, o := range obss {
		h.Record(o)
	}
	return h
}

// TestRecordAllIsTheRecordLoop: the bulk load — sorted input into an
// empty store — and both fallbacks, unsorted input and a store that
// already holds something, leave what one Record per observation leaves.
func TestRecordAllIsTheRecordLoop(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		in := randomObservations(r, r.Intn(300), 1+r.Intn(40), 1+r.Intn(8))
		sorted := slices.Clone(in)
		SortByTime(sorted)

		bulk := NewHistoryStore()
		bulk.RecordAll(sorted)
		sameStore(t, bulk, recordEach(NewHistoryStore(), sorted))

		unsorted := NewHistoryStore()
		unsorted.RecordAll(in)
		sameStore(t, unsorted, recordEach(NewHistoryStore(), in))

		seeded := recordEach(NewHistoryStore(), in[:len(in)/3])
		seeded.RecordAll(sorted)
		sameStore(t, seeded, recordEach(recordEach(NewHistoryStore(), in[:len(in)/3]), sorted))
	}
}

// TestRecordAfterRecordAllLeavesNeighboursAlone: the bulk load cuts every
// history out of one slab with cap == len, so an out-of-order Record
// reallocates its object's history. With spare capacity it would shift
// into the slab and overwrite the head of the next object's.
func TestRecordAfterRecordAllLeavesNeighboursAlone(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	sorted := randomObservations(r, 2000, 50, 100)
	SortByTime(sorted)
	bulk, ref := NewHistoryStore(), recordEach(NewHistoryStore(), sorted)
	bulk.RecordAll(sorted)
	for i := 0; i < 1000; i++ {
		late := randomObservations(r, 1, 50, 100)[0]
		bulk.Record(late)
		ref.Record(late)
		if i%50 == 0 {
			sameStore(t, bulk, ref)
		}
	}
	sameStore(t, bulk, ref)
}
