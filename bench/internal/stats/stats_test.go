package stats

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median even = %v", got)
	}
	if got := Median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("Median odd = %v", got)
	}
	if Median(nil) != 0 {
		t.Error("empty median must be 0")
	}
}

// The expected cut points are what Python prints for
// statistics.quantiles([...], n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := Quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("Quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = Quartiles([]float64{10, 30, 20})
	if q1 != 10 || q2 != 20 || q3 != 30 {
		t.Errorf("Quartiles(10,20,30) = %v %v %v", q1, q2, q3)
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spread(1..10) = %v, want 1", got)
	}
}

func TestSlices(t *testing.T) {
	// Two whole slices of one second, then half a slice that is left out:
	// three fast samples, one slow one, one past the last whole slice.
	samples := []Sample{{0.1, 10}, {0.2, 20}, {0.3, 30}, {1.5, 100}, {2.2, 7}}
	rates, p50s := Slices(samples, 2.5, 1)
	if len(rates) != 2 || rates[0] != 3 || rates[1] != 1 {
		t.Errorf("rates = %v, want [3 1]", rates)
	}
	if len(p50s) != 2 || p50s[0] != 20 || p50s[1] != 100 {
		t.Errorf("p50s = %v, want [20 100]", p50s)
	}
	// An empty slice has rate 0 and no latency.
	rates, p50s = Slices([]Sample{{1.5, 4}}, 2, 1)
	if len(rates) != 2 || rates[0] != 0 || rates[1] != 1 || len(p50s) != 1 {
		t.Errorf("rates = %v, p50s = %v", rates, p50s)
	}
	if r, p := Slices(samples, 0.5, 1); r != nil || p != nil {
		t.Error("a window shorter than one slice has no slices")
	}
}

func TestBestTenth(t *testing.T) {
	// Eleven values: the tenth rounds up to two of them.
	v := []float64{11, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := BestLow(v); got != 1.5 {
		t.Errorf("BestLow = %v, want 1.5", got)
	}
	if got := BestHigh(v); got != 10.5 {
		t.Errorf("BestHigh = %v, want 10.5", got)
	}
	if got := BestHigh([]float64{3, 7}); got != 7 {
		t.Errorf("BestHigh of two = %v, want 7", got)
	}
	if BestLow(nil) != 0 {
		t.Error("BestLow of nothing must be 0")
	}
}
