package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile of sorted by linear interpolation
// between the two closest ranks, computed exactly from the raw samples
// (no histogram buckets). It returns 0 for an empty slice.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
}

func sortedCopy(xs []int64) []int64 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// supportedPercentiles is the ladder the report picks its tail from.
var supportedPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// highestSupported returns the highest percentile on the ladder that has
// at least ten samples beyond it, or 0 when even the median has not.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range supportedPercentiles {
		if float64(n)*(1-p/100) >= 10 {
			best = p
		}
	}
	return best
}

func ms(ns float64) float64 { return ns / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
