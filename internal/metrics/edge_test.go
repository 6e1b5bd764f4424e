package metrics

import "testing"

// Degenerate load distributions: the figure pipeline feeds these during
// tiny-scale runs (empty networks, single-node sweeps, idle schemes),
// so every metric must stay finite and principled rather than dividing
// by zero.

func TestGiniEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		loads []float64
		want  float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 0},
		{"all-zero", []float64{0, 0, 0, 0}, 0},
		// One hot node among n: Gini = (n-1)/n.
		{"single-hot-node", []float64{0, 0, 0, 9}, 0.75},
	}
	for _, c := range cases {
		if got := Gini(c.loads); !almost(got, c.want, 1e-12) {
			t.Errorf("Gini(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestLoadCurveSingleNode(t *testing.T) {
	nf, lf := LoadCurve([]float64{7})
	if len(nf) != 1 || len(lf) != 1 {
		t.Fatalf("curve lengths = %d, %d", len(nf), len(lf))
	}
	if !almost(nf[0], 1, 1e-12) || !almost(lf[0], 1, 1e-12) {
		t.Errorf("single-node curve = (%v, %v), want (1, 1)", nf[0], lf[0])
	}
}

func TestLoadCurveAllZero(t *testing.T) {
	// With zero total load the load fraction stays 0 everywhere, not NaN.
	nf, lf := LoadCurve([]float64{0, 0, 0, 0})
	for i := range lf {
		if lf[i] != 0 {
			t.Errorf("zero-load loadFrac[%d] = %v", i, lf[i])
		}
		if !almost(nf[i], float64(i+1)/4, 1e-12) {
			t.Errorf("nodeFrac[%d] = %v", i, nf[i])
		}
	}
}
