package metrics

import (
	"math"
	"math/rand"
	"testing"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestLoadCurvePerfectBalance(t *testing.T) {
	loads := []float64{5, 5, 5, 5}
	nf, lf := LoadCurve(loads)
	for i := range nf {
		if !almost(nf[i], lf[i], 1e-12) {
			t.Fatalf("balanced curve off diagonal at %d: %v vs %v", i, nf[i], lf[i])
		}
	}
}

func TestLoadCurveAllOnOneNode(t *testing.T) {
	loads := []float64{100, 0, 0, 0}
	nf, lf := LoadCurve(loads)
	if !almost(lf[0], 1, 1e-12) {
		t.Fatalf("first point load share = %v, want 1", lf[0])
	}
	if !almost(nf[0], 0.25, 1e-12) {
		t.Fatalf("first point node share = %v", nf[0])
	}
}

func TestLoadCurveEmpty(t *testing.T) {
	nf, lf := LoadCurve(nil)
	if nf != nil || lf != nil {
		t.Fatal("empty input should return nil curves")
	}
}

func TestGini(t *testing.T) {
	if g := Gini([]float64{1, 1, 1, 1}); !almost(g, 0, 1e-12) {
		t.Errorf("equal gini = %v", g)
	}
	g := Gini([]float64{0, 0, 0, 100})
	if g < 0.7 {
		t.Errorf("concentrated gini = %v, want ~0.75", g)
	}
	if g2 := Gini(nil); g2 != 0 {
		t.Errorf("empty gini = %v", g2)
	}
	if g3 := Gini([]float64{0, 0}); g3 != 0 {
		t.Errorf("all-zero gini = %v", g3)
	}
}

func TestGiniOrderingInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	loads := make([]float64, 50)
	for i := range loads {
		loads[i] = r.Float64() * 100
	}
	g1 := Gini(loads)
	// Shuffle.
	r.Shuffle(len(loads), func(i, j int) { loads[i], loads[j] = loads[j], loads[i] })
	g2 := Gini(loads)
	if !almost(g1, g2, 1e-9) {
		t.Fatalf("gini depends on order: %v vs %v", g1, g2)
	}
}

func TestMaxMeanRatio(t *testing.T) {
	if r := MaxMeanRatio([]float64{2, 2, 2}); !almost(r, 1, 1e-12) {
		t.Errorf("balanced ratio = %v", r)
	}
	if r := MaxMeanRatio([]float64{9, 0, 0}); !almost(r, 3, 1e-12) {
		t.Errorf("ratio = %v, want 3", r)
	}
	if r := MaxMeanRatio(nil); r != 0 {
		t.Errorf("empty ratio = %v", r)
	}
	if r := MaxMeanRatio([]float64{0, 0}); r != 0 {
		t.Errorf("zero ratio = %v", r)
	}
}

func TestFractionIdle(t *testing.T) {
	if f := FractionIdle([]float64{0, 1, 0, 1}); !almost(f, 0.5, 1e-12) {
		t.Errorf("idle = %v", f)
	}
	if f := FractionIdle(nil); f != 0 {
		t.Errorf("empty idle = %v", f)
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if !almost(s.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v", s.Mean())
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 {
		t.Error("empty summary nonzero")
	}
	s.Add(3)
	if s.Mean() != 3 {
		t.Error("single-sample summary wrong")
	}
}

func TestPercentile(t *testing.T) {
	samples := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := Percentile(samples, 50); !almost(p, 5.5, 1e-12) {
		t.Errorf("p50 = %v", p)
	}
	if p := Percentile(samples, 0); p != 1 {
		t.Errorf("p0 = %v", p)
	}
	if p := Percentile(samples, 100); p != 10 {
		t.Errorf("p100 = %v", p)
	}
	if p := Percentile(nil, 50); p != 0 {
		t.Errorf("empty percentile = %v", p)
	}
	// Input must not be mutated.
	shuffled := []float64{3, 1, 2}
	Percentile(shuffled, 50)
	if shuffled[0] != 3 {
		t.Error("Percentile mutated input")
	}
}

// Property: Lorenz-style curve is monotone and ends at (1, 1).
func TestQuickLoadCurveInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		loads := make([]float64, 1+r.Intn(100))
		for i := range loads {
			loads[i] = float64(r.Intn(1000))
		}
		total := 0.0
		for _, v := range loads {
			total += v
		}
		if total == 0 {
			continue
		}
		nf, lf := LoadCurve(loads)
		last := len(nf) - 1
		if !almost(nf[last], 1, 1e-12) || !almost(lf[last], 1, 1e-12) {
			t.Fatalf("curve does not end at (1,1): (%v,%v)", nf[last], lf[last])
		}
		for i := 1; i < len(nf); i++ {
			if lf[i] < lf[i-1]-1e-12 || nf[i] < nf[i-1] {
				t.Fatal("curve not monotone")
			}
		}
		for i := range nf {
			if lf[i] < nf[i]-1e-9 {
				t.Fatal("descending-sorted curve dipped below diagonal")
			}
		}
	}
}
