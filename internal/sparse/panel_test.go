package sparse

import (
	"math/rand"
	"sync"
	"testing"
)

// panelClose compares a batched solve against a solo solve. The panel
// kernels mirror the sequential solves' per-RHS operation order, so
// agreement is bitwise up to the sign of zero (a batched kernel may not
// skip the zero terms the sequential one does).
func panelClose(a, b float64) bool {
	return a == b
}

// panelTestFactor builds a small SPD system and its factorization.
func panelTestFactor(t *testing.T, n int, seed int64) (*CSC, Factorization) {
	t.Helper()
	a := randomSPD(rand.New(rand.NewSource(seed)), n)
	f, err := Factor(a, FactorAuto, OrderNatural)
	if err != nil {
		t.Fatalf("factor: %v", err)
	}
	return a, f
}

// TestPanelBrokerMatchesSolo drives k lanes through a broker, each solving
// its own right-hand sides against a shared factorization, and checks
// results are identical to solo solves while the broker actually batched.
func TestPanelBrokerMatchesSolo(t *testing.T) {
	const n, lanes, rounds = 60, 5, 12
	_, f := panelTestFactor(t, n, 1)

	type laneOut struct {
		got  [][]float64
		want [][]float64
	}
	outs := make([]laneOut, lanes)
	br := NewPanelBroker()
	// Join every lane before any starts, as sweep.Run does: a lane started
	// while later ones are still unjoined runs width-1 rounds against a
	// barrier that does not know about them yet.
	joined := make([]*PanelLane, lanes)
	for l := range joined {
		joined[l] = br.Join()
	}
	var wg sync.WaitGroup
	for l, ln := range joined {
		wg.Add(1)
		go func(l int, ln *PanelLane) {
			defer wg.Done()
			defer ln.Leave()
			wf := ln.Wrap(f)
			rng := rand.New(rand.NewSource(int64(100 + l)))
			my := rounds + l%3 // uneven lane lengths: early leavers narrow panels
			for r := 0; r < my; r++ {
				b := make([]float64, n)
				for i := range b {
					b[i] = rng.NormFloat64()
				}
				want := make([]float64, n)
				f.Solve(want, b)
				got := make([]float64, n)
				wf.Solve(got, b)
				outs[l].got = append(outs[l].got, got)
				outs[l].want = append(outs[l].want, want)
			}
		}(l, ln)
	}
	wg.Wait()

	for l := range outs {
		for r := range outs[l].got {
			for i := range outs[l].got[r] {
				if !panelClose(outs[l].got[r][i], outs[l].want[r][i]) {
					t.Fatalf("lane %d round %d row %d: batched %g differs from solo %g", l, r, i, outs[l].got[r][i], outs[l].want[r][i])
				}
			}
		}
	}
	st := br.Stats()
	if st.Solves == 0 || st.Rounds == 0 {
		t.Fatalf("broker saw no traffic: %+v", st)
	}
	if st.Batched == 0 {
		t.Fatalf("no solves batched into panels: %+v", st)
	}
	if mw := st.MeanWidth(); mw < 2 {
		t.Fatalf("mean panel width %.2f < 2 with %d aligned lanes", mw, lanes)
	}
}

// TestPanelBrokerMixedFactors checks rounds split per underlying
// factorization even when lanes interleave two factors.
func TestPanelBrokerMixedFactors(t *testing.T) {
	const n, lanes = 40, 4
	_, f1 := panelTestFactor(t, n, 2)
	_, f2 := panelTestFactor(t, n, 3)

	br := NewPanelBroker()
	var wg sync.WaitGroup
	errs := make(chan string, lanes)
	for l := 0; l < lanes; l++ {
		ln := br.Join()
		wg.Add(1)
		go func(l int, ln *PanelLane) {
			defer wg.Done()
			defer ln.Leave()
			w1, w2 := ln.Wrap(f1), ln.Wrap(f2)
			rng := rand.New(rand.NewSource(int64(200 + l)))
			for r := 0; r < 10; r++ {
				// Odd lanes on odd rounds hit the other factor, so rounds
				// carry mixed-factor batches.
				wf, sf := w1, f1
				if (l+r)%2 == 1 {
					wf, sf = w2, f2
				}
				b := make([]float64, n)
				for i := range b {
					b[i] = rng.NormFloat64()
				}
				want := make([]float64, n)
				sf.Solve(want, b)
				got := make([]float64, n)
				wf.SolveWith(got, b, nil)
				for i := range got {
					if !panelClose(got[i], want[i]) {
						errs <- "batched result differs from solo"
						return
					}
				}
			}
		}(l, ln)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if st := br.Stats(); st.Batched == 0 {
		t.Fatalf("mixed-factor rounds never batched: %+v", st)
	}
}

// TestPanelBrokerMultiRHS checks a lane-side SolveMulti composes with
// cross-lane batching and that solves after Leave still execute.
func TestPanelBrokerMultiRHS(t *testing.T) {
	const n = 30
	_, f := panelTestFactor(t, n, 4)
	br := NewPanelBroker()
	ln := br.Join()
	wf := ln.Wrap(f)

	const k = 3
	rng := rand.New(rand.NewSource(9))
	b := make([][]float64, k)
	dst := make([][]float64, k)
	want := make([][]float64, k)
	for j := 0; j < k; j++ {
		b[j] = make([]float64, n)
		for i := range b[j] {
			b[j][i] = rng.NormFloat64()
		}
		dst[j] = make([]float64, n)
		want[j] = make([]float64, n)
		f.Solve(want[j], b[j])
	}
	mf, ok := wf.(MultiSolver)
	if !ok {
		t.Fatal("wrapped factorization lost MultiSolver")
	}
	mf.SolveMulti(dst, b)
	for j := range dst {
		for i := range dst[j] {
			if !panelClose(dst[j][i], want[j][i]) {
				t.Fatalf("rhs %d row %d: %g != %g", j, i, dst[j][i], want[j][i])
			}
		}
	}
	ln.Leave()
	// Post-Leave solves bypass the barrier rather than deadlocking.
	got := make([]float64, n)
	wf.Solve(got, b[0])
	for i := range got {
		if !panelClose(got[i], want[0][i]) {
			t.Fatal("post-Leave solve wrong")
		}
	}
	if st := br.Stats(); st.Batched < k {
		t.Fatalf("single-lane SolveMulti should batch k rhs: %+v", st)
	}
}
