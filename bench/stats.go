package main

import (
	"math"
	"sort"
	"time"
)

// ms and us convert a duration to fractional milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the middle value of xs (mean of the two middle values
// for an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDur is median over durations.
func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// tail is the highest percentile of a latency sample that still has at
// least ten samples beyond it (choosing-metrics §1). With fewer than 21
// samples no such percentile exists and the maximum is reported with
// beyond = 0, so the reader sees it is a single observation.
type tail struct {
	value  time.Duration
	pct    float64
	beyond int
}

func tailOf(ds []time.Duration) tail {
	n := len(ds)
	if n == 0 {
		return tail{}
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n < 21 {
		return tail{value: s[n-1], pct: 100}
	}
	i := n - 11
	return tail{value: s[i], pct: 100 * float64(i+1) / float64(n), beyond: 10}
}

// growthExp is the fitted exponent between two sizes: ln(large ÷ small)
// ÷ ln(size ratio). The paper's linear claims are exponent 1.0.
func growthExp(small, large time.Duration, nSmall, nLarge int) float64 {
	if small <= 0 || large <= 0 {
		return 0
	}
	return math.Log(float64(large)/float64(small)) / math.Log(float64(nLarge)/float64(nSmall))
}

// quartileSpread is the driver's steadiness measure: the distance
// between the first and third quartile as a share of the median, with
// the quartiles Python's statistics.quantiles(xs, n=4) returns (the
// "exclusive" method: position p·(n+1) in the sorted sample, clamped
// and linearly interpolated).
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		n := len(s)
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / math.Abs(m)
}
