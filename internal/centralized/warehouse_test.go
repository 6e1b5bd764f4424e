package centralized

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"peertrack/internal/moods"
)

// observations generates visitsEach observations of each of objects
// tags, sorted by time as a workload is.
func observations(objects, visitsEach int, seed int64) []moods.Observation {
	r := rand.New(rand.NewSource(seed))
	var obss []moods.Observation
	for i := 0; i < objects; i++ {
		at := time.Duration(r.Intn(1000)) * time.Second
		for v := 0; v < visitsEach; v++ {
			obss = append(obss, moods.Observation{
				Object: moods.ObjectID(fmt.Sprintf("tag-%d", i)),
				Node:   moods.NodeName(fmt.Sprintf("loc-%d", r.Intn(50))),
				At:     at,
			})
			at += time.Duration(1+r.Intn(600)) * time.Second
		}
	}
	moods.SortByTime(obss)
	return obss
}

func TestUnknownTag(t *testing.T) {
	w := New(observations(5, 3, 1))
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
	small := newWithPool(300, observations(2000, 10, 7)) // 20k rows = 200 pages, fits buffer
	big := newWithPool(300, observations(20000, 10, 7))  // 200k rows = 2000 pages, 85% misses
	_, cSmall := small.FullTrace("tag-0")
	_, cBig := big.FullTrace("tag-0")
	ratioRows := float64(big.rows.Len()) / float64(small.rows.Len())
	ratioCost := float64(cBig) / float64(cSmall)
	if ratioCost <= ratioRows {
		t.Fatalf("cost ratio %.1f not ultralinear vs rows ratio %.1f", ratioCost, ratioRows)
	}
}

func TestCostDeterministic(t *testing.T) {
	w := New(observations(100, 5, 9))
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
	r := rand.New(rand.NewSource(1))
	obss := make([]moods.Observation, 2_500_000)
	for i := range obss {
		obss[i] = moods.Observation{
			Object: moods.ObjectID(fmt.Sprintf("t%d", i%100000)),
			Node:   moods.NodeName(fmt.Sprintf("n%d", r.Intn(512))),
			At:     time.Duration(i) * time.Millisecond,
		}
	}
	w := New(obss)
	_, cost := w.FullTrace("t5")
	if cost < 50*time.Millisecond || cost > 500*time.Millisecond {
		t.Fatalf("cost at 2.5M rows = %v, want O(100ms)", cost)
	}
}
