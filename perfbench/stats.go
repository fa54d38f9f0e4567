package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie above a reported tail
// percentile: a tail read from fewer samples is one outlier's value.
const tailBeyond = 10

// sample is a set of measurements in one unit.
type sample []float64

func durationsMS(ds []time.Duration) sample {
	s := make(sample, len(ds))
	for i, d := range ds {
		s[i] = float64(d) / float64(time.Millisecond)
	}
	return s
}

func (s sample) sorted() sample {
	c := append(sample(nil), s...)
	sort.Float64s(c)
	return c
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100):
// the smallest sample with at least p% of the samples at or below it.
func (s sample) percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	k := int(math.Ceil(p / 100 * float64(len(c))))
	k = min(max(k, 1), len(c))
	return c[k-1]
}

func (s sample) median() float64 { return s.percentile(50) }

// tailPercentile is the highest percentile, capped at 99, that leaves
// at least tailBeyond samples above it under the nearest-rank rule;
// 0 when there are too few samples for any tail.
func tailPercentile(n int) float64 {
	if n <= tailBeyond {
		return 0
	}
	p := 100 * float64(n-tailBeyond) / float64(n)
	if p > 99 {
		p = 99
	}
	return p
}

// tail returns the tail value and the percentile it was read at.
func (s sample) tail() (value, pct float64) {
	pct = tailPercentile(len(s))
	if pct == 0 {
		return s.percentile(100), 100
	}
	return s.percentile(pct), pct
}

func medianDuration(ds []time.Duration) time.Duration {
	s := make(sample, len(ds))
	for i, d := range ds {
		s[i] = float64(d)
	}
	return time.Duration(s.median())
}
