package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail value.
const minBeyond = 10

// maxTailPct caps the tail percentile. Above p99 a run's tail is set by
// its few rarest stalls, which on a shared host come from other tenants
// and vary from run to run far more than the program does.
const maxTailPct = 99.0

// tail returns the highest percentile of xs, up to maxTailPct, that
// still has at least minBeyond samples above it, and that percentile:
// the value at 1-based rank min(n-minBeyond, ceil(n*maxTailPct/100)) of
// the sorted samples. With too few samples to have minBeyond beyond any
// of them, ok is false.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	k := min(n-minBeyond, int(math.Ceil(float64(n)*maxTailPct/100)))
	return s[k-1], 100 * float64(k) / float64(n), true
}

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	k := int(p/100*float64(len(s))+0.999999) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
