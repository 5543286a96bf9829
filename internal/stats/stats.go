// Package stats provides the robust statistics the measurement harness
// applies across repetitions (the thesis repeats every point seven times
// "to avoid outliers or unwanted influences"): the median, the median
// absolute deviation, and the MAD outlier rejection built on them.
package stats

import (
	"math"
	"sort"
)

// Median returns the median of xs (0 for an empty slice). xs is not
// modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// MAD returns the median absolute deviation of xs around their median —
// the robust spread estimate the outlier rejection of the measurement
// supervisor uses (the thesis repeats every point "to avoid outliers or
// unwanted influences"; MAD-based rejection formalizes that step).
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Median(xs)
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - m)
	}
	return Median(devs)
}

// MADOutliers flags the values of xs whose absolute deviation from the
// median exceeds k·MAD. floor is an absolute deviation below which a value
// is never an outlier — it keeps a set of near-identical repetitions
// (MAD ≈ 0) from rejecting everything that differs in the last digit.
// With fewer than three values nothing is rejected: there is no robust
// center to reject against.
func MADOutliers(xs []float64, k, floor float64) []bool {
	out := make([]bool, len(xs))
	if len(xs) < 3 {
		return out
	}
	m := Median(xs)
	scale := k * MAD(xs)
	if scale < floor {
		scale = floor
	}
	for i, x := range xs {
		if math.Abs(x-m) > scale {
			out[i] = true
		}
	}
	return out
}
