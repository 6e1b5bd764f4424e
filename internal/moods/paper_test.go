package moods_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"peertrack/internal/moods"
	"peertrack/internal/workload"
)

// TestSortByTimeOnPaperWorkloads: the paper's workload — placements
// that tie across nodes, bursts that tie within a group — shuffled and
// sorted by SortByTime is what the stable sort it replaced gives.
func TestSortByTimeOnPaperWorkloads(t *testing.T) {
	nodes := make([]moods.NodeName, 16)
	for i := range nodes {
		nodes[i] = moods.NodeName(fmt.Sprintf("org-%04d", i))
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, grouped := range []bool{true, false} {
			res, err := workload.PaperSpec{Nodes: nodes, ObjectsPerNode: 60, MoveFraction: 0.2, TraceLen: 6, Grouped: grouped, Seed: seed,
				Spread: 50 * time.Nanosecond}.Generate()
			if err != nil {
				t.Fatal(err)
			}
			got := res.Observations
			rand.New(rand.NewSource(seed)).Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
			want := slices.Clone(got)
			slices.SortStableFunc(want, func(a, b moods.Observation) int { return cmp.Compare(a.At, b.At) })
			moods.SortByTime(got)
			if !slices.Equal(got, want) {
				t.Errorf("seed %d grouped %v: SortByTime differs from the stable sort", seed, grouped)
			}
		}
	}
}

// TestRecordAllOnPaperWorkloads: the bulk load of the paper's workload,
// 32 nodes × 200 objects, grouped and individual, two seeds, answers as
// one Record per observation does. Its histories are long and its
// objects many, where TestRecordAllIsTheRecordLoop draws at most 300
// observations of at most 40 objects.
func TestRecordAllOnPaperWorkloads(t *testing.T) {
	nodes := make([]moods.NodeName, 32)
	for i := range nodes {
		nodes[i] = moods.NodeName(fmt.Sprintf("org-%04d", i))
	}
	for seed := int64(1); seed <= 2; seed++ {
		for _, grouped := range []bool{true, false} {
			res, err := workload.PaperSpec{Nodes: nodes, ObjectsPerNode: 200, MoveFraction: 0.10, TraceLen: 10, Grouped: grouped, Seed: seed}.Generate()
			if err != nil {
				t.Fatal(err)
			}
			bulk := moods.NewHistoryStore()
			bulk.RecordAll(res.Observations)
			moods.SameStore(t, bulk, moods.RecordEach(moods.NewHistoryStore(), res.Observations))
		}
	}
}
