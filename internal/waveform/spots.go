package waveform

import (
	"math"
	"sort"
)

// SpotEps is the tolerance below which two transition spots are merged.
// PDN simulations run at nanosecond scale, so a femtosecond epsilon is far
// below any physically meaningful separation.
const SpotEps = 1e-18

// MergeSpots sorts the time points and removes near-duplicates (within eps).
// It always keeps 0 and tstop as the span endpoints when includeEnds is true.
func MergeSpots(spots []float64, tstop float64, eps float64, includeEnds bool) []float64 {
	if eps <= 0 {
		eps = SpotEps
	}
	pts := make([]float64, 0, len(spots)+2)
	for _, t := range spots {
		if t >= -eps && t <= tstop+eps {
			pts = append(pts, math.Max(0, math.Min(t, tstop)))
		}
	}
	if includeEnds {
		pts = append(pts, 0, tstop)
	}
	sort.Float64s(pts)
	out := pts[:0]
	for _, t := range pts {
		if len(out) == 0 || t-out[len(out)-1] > eps {
			out = append(out, t)
		}
	}
	return out
}

// LTS computes the local transition spots of a single waveform over
// [0, tstop], sorted and deduplicated, including the endpoints.
func LTS(w Waveform, tstop float64) []float64 {
	return MergeSpots(w.Transitions(nil, tstop), tstop, SpotEps, true)
}

// GTS computes the global transition spots: the union of all sources' LTS
// over [0, tstop] (paper definition), including the endpoints.
func GTS(ws []Waveform, tstop float64) []float64 {
	var all []float64
	for _, w := range ws {
		all = w.Transitions(all, tstop)
	}
	return MergeSpots(all, tstop, SpotEps, true)
}

// ContainsSpot reports whether t is one of the spots (within SpotEps),
// assuming spots is sorted.
func ContainsSpot(spots []float64, t float64) bool {
	i := sort.SearchFloat64s(spots, t-SpotEps)
	return i < len(spots) && math.Abs(spots[i]-t) <= SpotEps
}

// NextSpot returns the first spot strictly after t (beyond SpotEps),
// assuming spots is sorted. These lookups run once per grid point per
// segment in the transient solvers, so they binary-search rather than scan.
func NextSpot(spots []float64, t float64) (float64, bool) {
	i := sort.SearchFloat64s(spots, t+SpotEps)
	for i < len(spots) && spots[i] <= t+SpotEps {
		i++
	}
	if i < len(spots) {
		return spots[i], true
	}
	return 0, false
}
