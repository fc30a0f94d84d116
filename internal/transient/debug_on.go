//go:build matexdebug

package transient

import (
	"fmt"
	"math"
)

// Build with -tags matexdebug to activate the runtime invariant layer: every
// segment's input terms the MATEX loop takes from its helper goroutine are
// computed again inline and must match bit for bit. Release builds compile
// the check in debug_off.go to nothing.

// debugEnabled reports whether the matexdebug invariant layer is compiled in.
const debugEnabled = true

// debugCheckAhead panics with the segment time unless every term the
// segment uses has the same bits in got, the helper's, and want, the inline
// computation of the same terms.
func debugCheckAhead(got, want *segInputs) {
	same := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	ok := got.t == want.t && got.segEnd == want.segEnd && got.flat == want.flat && got.deviation == want.deviation &&
		math.Float64bits(got.buScale) == math.Float64bits(want.buScale) && math.Float64bits(got.maxDiff) == math.Float64bits(want.maxDiff) &&
		got.basePairs == want.basePairs && got.rampPairs == want.rampPairs &&
		same(got.bu0, want.bu0) && same(got.bu1, want.bu1) && same(got.slope, want.slope)
	if got.deviation {
		ok = ok && same(got.q, want.q)
	}
	if got.deviation && !got.flat {
		ok = ok && same(got.q1, want.q1) && same(got.w1, want.w1) && same(got.r2, want.r2)
	}
	if !ok {
		panic(fmt.Sprintf("transient: input terms computed ahead for the segment at t=%g differ from the inline computation", got.t))
	}
}
