package main

import (
	"math"
	"slices"
	"time"
)

func sorted(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// median interpolates between the two middle order statistics; 0 for an
// empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (the smallest value
// with at least p percent of the samples at or below it), the convention
// latency reports use; 0 for an empty slice.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// maxOf and minOf are 0 for an empty slice, like the others.
func maxOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return slices.Max(v)
}

func minOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return slices.Min(v)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
