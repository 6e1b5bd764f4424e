package centralized

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"peertrack/internal/moods"
)

func load(w *Warehouse, h *moods.HistoryStore, objects, visitsEach int, seed int64) []moods.ObjectID {
	r := rand.New(rand.NewSource(seed))
	objs := make([]moods.ObjectID, objects)
	for i := range objs {
		objs[i] = moods.ObjectID(fmt.Sprintf("tag-%d", i))
		at := time.Duration(r.Intn(1000)) * time.Second
		for v := 0; v < visitsEach; v++ {
			obs := moods.Observation{
				Object: objs[i],
				Node:   moods.NodeName(fmt.Sprintf("loc-%d", r.Intn(50))),
				At:     at,
			}
			w.Insert(obs)
			if h != nil {
				h.Record(obs)
			}
			at += time.Duration(1+r.Intn(600)) * time.Second
		}
	}
	return objs
}

func TestTraceMatchesOracle(t *testing.T) {
	w := New()
	h := moods.NewHistoryStore()
	objs := load(w, h, 50, 8, 1)
	for _, o := range objs {
		got, _ := w.FullTrace(o)
		want := h.FullTrace(o)
		if len(got) != len(want) {
			t.Fatalf("%s: trace %v want %v", o, got.Nodes(), want.Nodes())
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: trace mismatch at %d", o, i)
			}
		}
	}
}

func TestWindowedTraceMatchesOracle(t *testing.T) {
	w := New()
	h := moods.NewHistoryStore()
	objs := load(w, h, 20, 6, 2)
	r := rand.New(rand.NewSource(3))
	for q := 0; q < 100; q++ {
		o := objs[r.Intn(len(objs))]
		t1 := time.Duration(r.Intn(3000)) * time.Second
		t2 := t1 + time.Duration(r.Intn(2000))*time.Second
		got, _ := w.Trace(o, t1, t2)
		want, _ := h.Trace(o, t1, t2)
		if len(got) != len(want) {
			t.Fatalf("windowed trace mismatch: %v want %v", got.Nodes(), want.Nodes())
		}
	}
}

func TestUnknownTag(t *testing.T) {
	w := New()
	load(w, nil, 5, 3, 1)
	path, cost := w.FullTrace("ghost")
	if len(path) != 0 {
		t.Fatal("ghost has a path")
	}
	if cost <= 0 {
		t.Fatal("scan of non-empty relation costs nothing")
	}
}

func TestCostGrowsUltralinearly(t *testing.T) {
	// Query cost per row must increase with relation size once the
	// buffer pool is exceeded: cost(8x rows) > 8x cost(1x rows).
	small := newWithPool(300)
	load(small, nil, 2000, 10, 7) // 20k rows = 200 pages, fits buffer
	big := newWithPool(300)
	load(big, nil, 20000, 10, 7) // 200k rows = 2000 pages, 85% misses
	_, cSmall := small.FullTrace("tag-0")
	_, cBig := big.FullTrace("tag-0")
	ratioRows := float64(len(big.rows)) / float64(len(small.rows))
	ratioCost := float64(cBig) / float64(cSmall)
	if ratioCost <= ratioRows {
		t.Fatalf("cost ratio %.1f not ultralinear vs rows ratio %.1f", ratioCost, ratioRows)
	}
}

func TestCostDeterministic(t *testing.T) {
	w := New()
	load(w, nil, 100, 5, 9)
	_, c1 := w.FullTrace("tag-3")
	_, c2 := w.FullTrace("tag-3")
	if c1 != c2 {
		t.Fatalf("cost not deterministic: %v vs %v", c1, c2)
	}
}

func TestCalibrationBand(t *testing.T) {
	// The calibrated model should land centralized trace time in the
	// tens-of-milliseconds band at 2.5M rows (the paper's 512x5000
	// point shows ~130ms) and single-digit ms at 320k rows.
	w := New()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2_500_000; i++ {
		w.Insert(moods.Observation{
			Object: moods.ObjectID(fmt.Sprintf("t%d", i%100000)),
			Node:   moods.NodeName(fmt.Sprintf("n%d", r.Intn(512))),
			At:     time.Duration(i) * time.Millisecond,
		})
	}
	_, cost := w.FullTrace("t5")
	if cost < 50*time.Millisecond || cost > 500*time.Millisecond {
		t.Fatalf("cost at 2.5M rows = %v, want O(100ms)", cost)
	}
}
