package moods

import (
	"encoding/binary"
	"fmt"
	"math"
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

// stableSorted fails unless SortByTime leaves in what the stable sort
// leaves.
func stableSorted(t *testing.T, name string, in []Observation) {
	t.Helper()
	want := slices.Clone(in)
	slices.SortStableFunc(want, byAt)
	SortByTime(in)
	if !slices.Equal(in, want) {
		t.Errorf("%s (%d observations): SortByTime differs from the stable sort", name, len(in))
	}
}

// at numbers observations by their node, one a capture time.
func at(times ...time.Duration) []Observation {
	out := make([]Observation, len(times))
	for i, ts := range times {
		out[i] = Observation{Object: "o", Node: NodeName(fmt.Sprintf("n%d", i)), At: ts}
	}
	return out
}

// TestSortByTimeEdgeCases: inputs the seeded draws never make — no
// observation and one, one capture time for all, times at both ends of
// int64, and spans too wide to pack beside the position, which the sort
// takes a round of passes at a time.
func TestSortByTimeEdgeCases(t *testing.T) {
	const lo, hi = time.Duration(math.MinInt64), time.Duration(math.MaxInt64)
	r := rand.New(rand.NewSource(7))
	draw := func(n int, next func() time.Duration) []Observation {
		times := make([]time.Duration, n)
		for i := range times {
			times[i] = next()
		}
		return at(times...)
	}
	cases := map[string][]Observation{
		"none":          {},
		"one":           at(5),
		"one time":      draw(1000, func() time.Duration { return -3 }),
		"both ends":     at(hi, lo, 0, hi, lo, -1, 1, lo+1, hi-1, lo, hi),
		"two extremes":  draw(3000, func() time.Duration { return []time.Duration{lo, hi}[r.Intn(2)] }),
		"full span":     draw(5000, func() time.Duration { return time.Duration(r.Uint64()) }),
		"wide and tied": draw(5000, func() time.Duration { return time.Duration(r.Intn(9)-4) << 60 }),
		"high bits":     draw(3000, func() time.Duration { return time.Duration(r.Int63()) &^ (1<<40 - 1) }),
		"wide, reversed": func() []Observation {
			in := draw(3000, func() time.Duration { return time.Duration(r.Uint64()) })
			slices.SortStableFunc(in, byAt)
			slices.Reverse(in)
			return in
		}(),
	}
	for name, in := range cases {
		stableSorted(t, name, in)
	}
}

// FuzzSortByTime checks SortByTime against the stable sort. Each time is
// d<<shift + d for a two-byte d: ties where a d repeats, low bits that
// vary, and at a wide shift a span too wide to pack in one round.
func FuzzSortByTime(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 2, 0, 1, 0, 0, 0}, uint8(0))
	f.Add([]byte{0, 128, 255, 127, 0, 0, 0, 128, 255, 127}, uint8(48))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(63))
	f.Fuzz(func(t *testing.T, data []byte, shift uint8) {
		times := make([]time.Duration, len(data)/2)
		for i := range times {
			d := time.Duration(int16(binary.LittleEndian.Uint16(data[2*i:])))
			times[i] = d<<(shift%64) + d
		}
		stableSorted(t, "fuzz", at(times...))
	})
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
