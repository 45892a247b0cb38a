package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value (mean of the middle two for an even
// count); 0 for no samples.
func median(v []float64) float64 { return percentile(v, 50) }

// percentile returns the p-th percentile by linear interpolation
// between closest ranks; 0 for no samples.  v is not modified.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPermille are the candidate tail percentiles, ascending, in
// tenths of a percent (integers: 10000 samples have exactly ten beyond
// p99.9, which a float product misses).
var tailPermille = []int{500, 750, 900, 950, 990, 999}

// tailPercentile returns the highest candidate percentile that still
// has at least ten of the n samples beyond it; where none has, the
// median.
func tailPercentile(n int) float64 {
	best := tailPermille[0]
	for _, p := range tailPermille {
		if n*(1000-p) >= 10*1000 {
			best = p
		}
	}
	return float64(best) / 10
}

// quartiles returns the first and third quartile with the "exclusive"
// method of Python's statistics.quantiles(v, n=4), the method the
// acceptance rule for run-to-run spread is stated in.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		if n == 1 {
			return v[0], v[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / m)
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

// timeMedian runs fn reps times and returns the median duration.
func timeMedian(reps int, fn func()) time.Duration {
	d := make([]float64, reps)
	for i := range d {
		t0 := time.Now()
		fn()
		d[i] = float64(time.Since(t0))
	}
	return time.Duration(median(d))
}
