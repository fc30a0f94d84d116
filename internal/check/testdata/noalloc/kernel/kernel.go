// Package kernel is a noalloc-analyzer fixture: each `want` comment marks a
// line the analyzer must flag with a message containing the quoted text.
package kernel

import "fmt"

// BadMake allocates directly.
//
//matex:noalloc
func BadMake(n int) []float64 {
	return make([]float64, n) // want "make in noalloc function BadMake"
}

// BadFmt calls a banned formatting package and boxes an argument.
//
//matex:noalloc
func BadFmt(n int) string {
	return fmt.Sprintf("%d", n) // want "call to fmt.Sprintf" // want "argument boxes int"
}

// BadClosure builds a closure per call.
//
//matex:noalloc
func BadClosure(scale float64) func(float64) float64 {
	return func(a float64) float64 { return a * scale } // want "function literal allocates a closure"
}

// BadIndirect flags a call the analyzer cannot resolve.
//
//matex:noalloc
func BadIndirect(f func()) {
	f() // want "indirect call"
}

// BadHelper calls an unannotated same-package helper that allocates.
//
//matex:noalloc
func BadHelper(n int) []int {
	return helper(n) // want "calls unannotated helper which allocates"
}

func helper(n int) []int {
	return make([]int, n)
}

// Clean touches only caller-provided memory: in-place scale plus a running
// sum, the shape of the project's solver kernels.
//
//matex:noalloc
func Clean(dst, src []float64, alpha float64) float64 {
	s := 0.0
	for i := range dst {
		dst[i] = alpha * src[i]
		s += dst[i]
	}
	return s
}

// Waived allocates on a grow path with a reasoned line waiver.
//
//matex:noalloc
func Waived(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n) //matex:alloc-ok(grow path exercised by the fixture)
	}
	return buf[:n]
}

// Stale carries a waiver for an analyzer the suite no longer has, which is
// itself a finding.
func Stale() {
	//matex:pool-drop(no analyzer reads this) // want "unknown directive //matex:pool-drop"
}

// Unannotated may allocate freely; the analyzer must stay quiet here.
func Unannotated(n int) []float64 {
	out := make([]float64, n)
	return out
}
