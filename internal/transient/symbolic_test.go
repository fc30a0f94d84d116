package transient

import (
	"testing"

	"github.com/matex-sim/matex/internal/sparse"
)

// TestAdaptiveTRSymbolicSharing: the adaptive stepper's (C/h + G/2) family
// shares one sparsity pattern across every quantized step size, so a cached
// run must pay for exactly one symbolic analysis — every further computed
// factorization is a cheap numeric refactorization (SymbolicHits).
func TestAdaptiveTRSymbolicSharing(t *testing.T) {
	sys := ibmSystem(t, 0.2)
	cache := sparse.NewCache(0)
	res, err := Simulate(sys, TRAdaptive, Options{
		Tstop: 10e-9, Tol: 1e-4, Cache: cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Factorizations < 3 {
		t.Fatalf("adaptive run computed only %d factorizations; test needs a step-size family", s.Factorizations)
	}
	if s.Refactors != s.Factorizations {
		t.Errorf("refactors %d != factorizations %d: some LDLT factorizations bypassed the symbolic split", s.Refactors, s.Factorizations)
	}
	// G and the (C/h + G/2) family have distinct patterns: at most two
	// symbolic analyses, so symbolic hits ≥ factorizations - 2.
	if s.SymbolicHits < s.Factorizations-2 {
		t.Errorf("symbolic hits %d for %d factorizations: the step family did not share its analysis", s.SymbolicHits, s.Factorizations)
	}
	cs := cache.Stats()
	if cs.SymbolicMisses > 2 {
		t.Errorf("cache paid for %d symbolic analyses, want ≤ 2 (G + step family)", cs.SymbolicMisses)
	}
	t.Logf("factorizations=%d refactors=%d symbolic_hits=%d analyses=%d",
		s.Factorizations, s.Refactors, s.SymbolicHits, cs.SymbolicMisses)
}
