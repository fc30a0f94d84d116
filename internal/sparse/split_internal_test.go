package sparse

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

// A zero pivot in either half of a two-goroutine fill, or above both,
// returns the error RefactorInto's column order meets first — the helper is
// joined before anything returns, so no goroutine outlives the call.
func TestRefactorSplitZeroPivot(t *testing.T) {
	a := meshSPD(40, 40)
	sym, err := AnalyzeLDLT(a, OrderND)
	if err != nil {
		t.Fatal(err)
	}
	sn := sym.sn
	if sn.hi == 0 {
		t.Fatal("40x40 mesh: no split")
	}
	hasChild := make([]bool, sym.n)
	for _, p := range sym.parent {
		if p != -1 {
			hasChild[p] = true
		}
	}
	// A leaf's pivot is its diagonal entry, so zeroing that entry zeroes it.
	leaf := func(lo, hi int32) int {
		for c := lo; c < hi; c++ {
			if !hasChild[c] {
				return int(c)
			}
		}
		t.Fatalf("no leaf in columns [%d, %d)", lo, hi)
		return -1
	}
	ca, cb := leaf(0, sn.ptr[sn.mid]), leaf(sn.ptr[sn.mid], sn.ptr[sn.hi])
	ctop := int(sn.ptr[sn.hi]) // not a leaf: a NaN breaks its pivot instead
	setDiag := func(m *CSC, c int, v float64) {
		j := sym.perm[c]
		for p := m.Colptr[j]; p < m.Colptr[j+1]; p++ {
			if m.Rowidx[p] == j {
				m.Values[p] = v
			}
		}
	}
	good, err := sym.Refactor(a)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for _, c := range []struct {
		name      string
		zero, nan []int
		first     int
	}{
		{"first half", []int{ca}, nil, ca},
		{"second half", []int{cb}, nil, cb},
		{"both halves", []int{ca, cb}, nil, ca},
		{"second half and top", []int{cb}, []int{ctop}, cb},
		{"top", nil, []int{ctop}, ctop},
	} {
		m := a.Clone()
		for _, col := range c.zero {
			setDiag(m, col, 0)
		}
		for _, col := range c.nan {
			setDiag(m, col, math.NaN())
		}
		_, errTwo := sym.Refactor(m)
		errOne := sym.RefactorInto(good, m)
		if !errors.Is(errTwo, ErrSingular) || errOne == nil || errTwo.Error() != errOne.Error() {
			t.Errorf("%s: Refactor %v, RefactorInto %v", c.name, errTwo, errOne)
			continue
		}
		if want := fmt.Sprintf("%v: zero pivot at column %d in LDLT", ErrSingular, c.first); errTwo.Error() != want {
			t.Errorf("%s: %v, want %s", c.name, errTwo, want)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the failed fills, %d before", n, base)
	}
}

// The skeleton column counts are the reach pass's under every ordering — a
// count is the number of rows whose reach holds the column — on symmetric
// patterns, and on unsymmetric ones whose etree stays postordered; the
// others are refused.
func TestColCountsMatchReach(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	type pattern struct {
		a         *CSC
		symmetric bool
	}
	pats := []pattern{{meshSPD(1, 1), true}, {meshSPD(7, 5), true}, {pathSPD(40), true}, {arrowSPD(30), true}, {multiDomainSPD(6, 3), true}}
	for _, n := range []int{10, 60, 300} {
		pats = append(pats, pattern{randomSPD(rng, n), true}, pattern{randomSparse(rng, n, 0.03), false})
	}
	refused := 0
	for i, p := range pats {
		a := p.a
		for _, o := range []Ordering{OrderNatural, OrderMinDegree, OrderND} {
			sym, err := AnalyzeLDLT(a, o)
			if err != nil && !p.symmetric {
				refused++
				continue
			}
			if err != nil {
				t.Fatalf("pattern %d %v: %v", i, o, err)
			}
			up := sym.upperScatter(a)
			n := sym.n
			mark, xi := make([]int32, n), make([]int32, n)
			for k := range mark {
				mark[k] = -1
			}
			want := make([]int, n+1)
			for k := 0; k < n; k++ {
				for p := sym.reach(up, k, mark, xi); p < n; p++ {
					want[xi[p]+1]++
				}
			}
			for j := 0; j < n; j++ {
				want[j+1] += want[j]
			}
			if !slices.Equal(sym.colptr, want) {
				t.Errorf("pattern %d %v: skeleton counts differ from the reach's", i, o)
			}
		}
	}
	t.Logf("%d unsymmetric analyses refused", refused)
}
