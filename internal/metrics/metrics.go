// Package metrics provides the statistics the evaluation section
// reports: load-balance curves (the load%-vs-node% plot of Fig. 8a),
// Gini coefficients, imbalance ratios, and running summary statistics
// for latency series.
package metrics

import (
	"math"
	"sort"
)

// LoadCurve computes the cumulative load-share curve of Fig. 8a: after
// sorting nodes by descending load, point i reports
// (nodes considered / total nodes, load handled / total load).
// A perfectly balanced system yields the diagonal y = x; the farther the
// curve bows above the diagonal, the worse the balance.
//
// The input is per-node loads (e.g. objects indexed per node); nodes
// with zero load are included. Returns the curve as parallel slices of
// node fractions and load fractions, both in (0, 1].
func LoadCurve(loads []float64) (nodeFrac, loadFrac []float64) {
	if len(loads) == 0 {
		return nil, nil
	}
	s := append([]float64(nil), loads...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	total := 0.0
	for _, v := range s {
		total += v
	}
	nodeFrac = make([]float64, len(s))
	loadFrac = make([]float64, len(s))
	cum := 0.0
	for i, v := range s {
		cum += v
		nodeFrac[i] = float64(i+1) / float64(len(s))
		if total > 0 {
			loadFrac[i] = cum / total
		}
	}
	return nodeFrac, loadFrac
}

// Gini computes the Gini coefficient of the load distribution: 0 =
// perfectly equal, →1 = maximally concentrated.
func Gini(loads []float64) float64 {
	n := len(loads)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), loads...)
	sort.Float64s(s)
	var cum, total float64
	for i, v := range s {
		cum += v * float64(i+1)
		total += v
	}
	if total == 0 {
		return 0
	}
	return (2*cum)/(float64(n)*total) - (float64(n)+1)/float64(n)
}

// MaxMeanRatio reports max load divided by mean load — the classic DHT
// load-imbalance metric. Returns 0 for empty or all-zero input.
func MaxMeanRatio(loads []float64) float64 {
	if len(loads) == 0 {
		return 0
	}
	max, sum := 0.0, 0.0
	for _, v := range loads {
		if v > max {
			max = v
		}
		sum += v
	}
	if sum == 0 {
		return 0
	}
	return max / (sum / float64(len(loads)))
}

// FractionIdle reports the fraction of nodes with zero load — the
// complement of the paper's δ (probability a node has at least one
// group to index).
func FractionIdle(loads []float64) float64 {
	if len(loads) == 0 {
		return 0
	}
	idle := 0
	for _, v := range loads {
		if v == 0 {
			idle++
		}
	}
	return float64(idle) / float64(len(loads))
}

// Summary accumulates a running mean.
type Summary struct {
	n    int
	mean float64
}

// Add records one sample.
func (s *Summary) Add(x float64) {
	s.n++
	s.mean += (x - s.mean) / float64(s.n)
}

// Mean returns the sample mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Percentile returns the p-th percentile (0 <= p <= 100) of the samples
// using linear interpolation. Unlike Summary it needs the full series.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}
