// Package stats holds the statistics the benchmark adds to the repo's
// internal/metrics: a measured window cut into short slices, the best
// tenth of those slices, which a run reports, and the quartiles the acceptance check
// compares runs by.
package stats

import (
	"math"
	"sort"

	"peertrack/internal/metrics"
)

// Median is the middle value of v (mean of the two middle values for an
// even count); 0 for an empty slice.
func Median(v []float64) float64 { return metrics.Percentile(v, 50) }

// Quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (the "exclusive" method), so the
// spread printed here is the spread the acceptance driver computes. It
// needs at least two values.
func Quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Spread is the interquartile range of v as a share of its median.
func Spread(v []float64) float64 {
	q1, q2, q3 := Quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// P99Samples is the fewest samples for which a 99th percentile has ten
// samples beyond it.
const P99Samples = 1000

// Sample is one timed operation: when it finished, relative to the
// start of the measured window, and how long it took.
type Sample struct {
	At      float64 // seconds since the window opened
	Latency float64 // microseconds
}

// Slices cuts the window [0, window) into whole slices every seconds
// long and returns each slice's completion rate (1/s) and median
// latency. Samples past the last whole slice are left out; a slice
// without samples has rate 0 and no latency.
func Slices(samples []Sample, window, every float64) (rates, p50s []float64) {
	if every <= 0 || window < every {
		return nil, nil
	}
	k := int(window / every)
	buckets := make([][]float64, k)
	for _, s := range samples {
		if i := int(s.At / every); i >= 0 && i < k {
			buckets[i] = append(buckets[i], s.Latency)
		}
	}
	rates = make([]float64, k)
	for i, b := range buckets {
		rates[i] = float64(len(b)) / every
		if len(b) > 0 {
			p50s = append(p50s, Median(b))
		}
	}
	return rates, p50s
}

// BestLow and BestHigh are the mean of the lowest and of the highest
// tenth of v (rounded up to a whole number of values). The benchmark
// reports a latency as BestLow of its slice medians and a rate as
// BestHigh of its slice rates: on a shared machine the neighbours' load
// only ever adds time, in bursts, so the least disturbed slices of a run
// say what the program does and the middle ones say what the neighbours
// did. A change to the program moves every slice and the best tenth
// with them.
func BestLow(v []float64) float64  { return bestMean(v, false) }
func BestHigh(v []float64) float64 { return bestMean(v, true) }

func bestMean(v []float64, high bool) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := (len(s) + 9) / 10
	if high {
		s = s[len(s)-n:]
	} else {
		s = s[:n]
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(n)
}
