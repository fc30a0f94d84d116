package transient

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/dense"
	"github.com/matex-sim/matex/internal/krylov"
	"github.com/matex-sim/matex/internal/waveform"
)

// The oracle below shares no code with the MATEX driver, package krylov or
// the sparse factorizations: it reads the stamped C and G as dense matrices,
// evaluates B·u(t) from the waveforms, and propagates with
// dense.PWLResponse (dense LU and Expm) alone.

type oracleKind int

const (
	oracleSymRC   oracleKind = iota // symmetric, every node has a capacitor
	oracleSingC                     // symmetric, a third of the nodes are algebraic
	oracleUnsymRL                   // package inductor: unsymmetric G, nonsingular C
	oracleKinds
)

func (k oracleKind) String() string {
	return [...]string{"symRC", "singularC", "unsymRL"}[k]
}

// Every run asks for the solver's default budget; mexpStep is the segment
// clamp MEXP's standard subspace needs to converge below n on the mild
// systems (h·‖A‖ of about ten), as Options.MaxStep documents.
const (
	oracleTstop = 4e-9
	oracleTol   = 1e-6
	mexpStep    = 1e-12
)

// oracleCase is one seeded random system plus what the test knows about its
// inputs without asking the waveform package: every slope discontinuity.
type oracleCase struct {
	sys     *circuit.System
	corners []float64 // sorted, within (0, Tstop)
	evals   []float64 // uniform output grid including 0 and Tstop
}

// newOracleCase builds a random RC (or RC + package RL) network of at most
// 40 unknowns driven by two PWL and two pulse current sources. The inputs
// are quiet before 0.2 ns, the PWLs end by 1.6 ns and the pulses plateau
// after them, so every run sees flat segments as well as ramps. A stiff case
// is PDN-like — a decap every fifth node, femtofarad parasitics elsewhere —
// which is what the spectral-transform modes are built for; a mild case
// keeps every time constant within two decades for MEXP.
func newOracleCase(seed int64, kind oracleKind, stiff bool) (*oracleCase, error) {
	rng := rand.New(rand.NewSource(seed))
	n := 20 + rng.Intn(19)
	node := func(i int) string { return fmt.Sprintf("n%d", i) }
	uni := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
	ckt := circuit.New(fmt.Sprintf("oracle %v seed %d", kind, seed))
	var err error
	add := func(e error) {
		if err == nil {
			err = e
		}
	}
	for i := 0; i+1 < n; i++ {
		add(ckt.AddR(fmt.Sprintf("rc%d", i), node(i), node(i+1), uni(0.5, 5)))
	}
	for i := 0; i < n/2; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			add(ckt.AddR(fmt.Sprintf("rx%d", i), node(a), node(b), uni(0.5, 5)))
		}
	}
	for i := 0; i < n; i += 5 {
		add(ckt.AddR(fmt.Sprintf("rg%d", i), node(i), "0", uni(0.5, 5)))
	}
	hasCap := make([]bool, n)
	for i := 0; i < n; i++ {
		hasCap[i] = kind != oracleSingC || i%3 != 1
		if hasCap[i] {
			cap := uni(0.2e-12, 1e-12)
			if stiff {
				cap = uni(1e-15, 10e-15) // parasitic: far faster than any segment
			}
			if i%5 == 0 {
				cap = uni(1e-12, 5e-12) // decap: the modes the waveform shows
			}
			add(ckt.AddC(fmt.Sprintf("cg%d", i), node(i), "0", cap))
		}
	}
	for i := 0; i < n/4; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b && hasCap[a] && hasCap[b] {
			add(ckt.AddC(fmt.Sprintf("cx%d", i), node(a), node(b), uni(0.5e-15, 5e-15)))
		}
	}
	if kind == oracleUnsymRL {
		ckt.AddV("vdd", "pad", "0", waveform.DC(1))
		add(ckt.AddR("rp", "pad", "pm", uni(0.1, 0.5)))
		add(ckt.AddC("cp", "pm", "0", uni(1e-12, 5e-12)))
		add(ckt.AddL("lp", "pm", node(0), uni(0.05e-9, 0.5e-9)))
	}

	c := &oracleCase{}
	for k := 0; k < 2; k++ {
		ts := []float64{uni(0.2e-9, 0.4e-9)}
		vs := []float64{0}
		for len(ts) < 5 {
			ts = append(ts, ts[len(ts)-1]+uni(0.1e-9, 0.3e-9))
			v := uni(-40e-3, 40e-3)
			if len(ts) == 3 {
				v = vs[len(vs)-1] // one flat piece inside the PWL
			}
			vs = append(vs, v)
		}
		w, e := waveform.NewPWL(ts, vs)
		add(e)
		ckt.AddI(fmt.Sprintf("ipwl%d", k), node(rng.Intn(n)), "0", w)
		c.corners = append(c.corners, ts...)
	}
	for k := 0; k < 2; k++ {
		p := &waveform.Pulse{V1: 0, V2: uni(10e-3, 50e-3), Delay: uni(1.7e-9, 2.2e-9),
			Rise: uni(0.05e-9, 0.2e-9), Width: uni(0.4e-9, 0.8e-9), Fall: uni(0.05e-9, 0.2e-9)}
		ckt.AddI(fmt.Sprintf("ipul%d", k), node(rng.Intn(n)), "0", p)
		c.corners = append(c.corners, p.Delay, p.Delay+p.Rise, p.Delay+p.Rise+p.Width, p.Delay+p.Rise+p.Width+p.Fall)
	}
	if err != nil {
		return nil, err
	}
	sort.Float64s(c.corners)
	c.sys, err = circuit.Stamp(ckt, circuit.StampOptions{CollapseSupplies: true})
	if err != nil {
		return nil, err
	}
	for i := 0; i <= 32; i++ {
		c.evals = append(c.evals, float64(i)*oracleTstop/32)
	}
	return c, nil
}

// bAt evaluates B·u(t) straight from the stamping pattern and waveforms.
func (c *oracleCase) bAt(t float64) []float64 {
	b := make([]float64, c.sys.N)
	for _, in := range c.sys.Inputs {
		u := in.Wave.Value(t)
		for k, r := range in.Rows {
			b[r] += in.Coefs[k] * u
		}
	}
	return b
}

// segments counts the slope-constant segments of [0, Tstop] and how many of
// them carry no input slope beyond the rounding residue of a corner time.
func (c *oracleCase) segments() (total, flat int) {
	ends := append(append([]float64(nil), c.corners...), oracleTstop)
	var scale float64
	for _, t := range ends {
		for _, v := range c.bAt(t) {
			scale = math.Max(scale, math.Abs(v))
		}
	}
	prev := 0.0
	for _, t := range ends {
		b0, b1 := c.bAt(prev), c.bAt(t)
		var diff float64
		for i := range b0 {
			diff = math.Max(diff, math.Abs(b1[i]-b0[i]))
		}
		total++
		if diff <= 1e-12*scale {
			flat++
		}
		prev = t
	}
	return total, flat
}

// reference returns the full state at every eval time: the exact
// piecewise-linear response of the stamped C and G, read as dense matrices.
func (c *oracleCase) reference() ([][]float64, error) {
	return dense.PWLResponse(dense.FromRows(c.sys.C.Dense()), dense.FromRows(c.sys.G.Dense()), c.bAt, c.corners, c.evals)
}

// run simulates the case with every unknown probed.
func (c *oracleCase) run(method Method, kry krylov.Method) (*Result, error) {
	probes := make([]int, c.sys.N)
	for i := range probes {
		probes[i] = i
	}
	opts := Options{Tstop: oracleTstop, Tol: oracleTol, EvalTimes: c.evals, Probes: probes, Krylov: kry}
	if method == MEXP {
		opts.MaxStep = mexpStep
	}
	return Simulate(c.sys, method, opts)
}

// maxDeviation returns the largest deviation of a run from the dense
// reference; a short or non-finite waveform is an error.
func (c *oracleCase) maxDeviation(res *Result, ref [][]float64) (float64, error) {
	if len(res.Times) != len(c.evals) {
		return 0, fmt.Errorf("%d samples, want %d", len(res.Times), len(c.evals))
	}
	var worst float64
	for i, row := range res.Probes {
		for k, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("non-finite sample at t=%g, unknown %d", res.Times[i], k)
			}
			worst = math.Max(worst, math.Abs(v-ref[i][k]))
		}
	}
	return worst, nil
}

// TestMatexVsDenseOracle drives every MATEX mode over the three system
// kinds and both Krylov settings, so that both input treatments — augmented
// and deviation, alone and chosen between per segment — are compared against
// the dense reference, and asserts from the work counters that the treatment
// named in the sub-test is the one that ran (sub-test names are identifiers
// other tools track, so deviation keeps the paper's label, eq5).
func TestMatexVsDenseOracle(t *testing.T) {
	want := func(kind oracleKind, m Method, kry krylov.Method) string {
		switch {
		case m == IMATEX || m == RMATEX && kind == oracleSingC:
			return "eq5" // deviation on every spot
		case kind == oracleSymRC && kry != krylov.MethodArnoldi:
			return "augmented-or-eq5" // chosen per segment
		}
		return "augmented" // unsymmetric or Arnoldi-pinned
	}
	for kind := oracleKind(0); kind < oracleKinds; kind++ {
		for seed := int64(1); seed <= 3; seed++ {
			for _, stiff := range []bool{true, false} {
				methods := []Method{IMATEX, RMATEX}
				if !stiff {
					// MEXP on a singular C answers for the regularized C+δI,
					// whose δ-fast modes saturate any system this small (the
					// fuzz target still checks it fails cleanly); its clamped
					// walk costs 100× the other modes', so one seed per kind.
					if kind == oracleSingC || seed > 1 {
						continue
					}
					methods = []Method{MEXP}
				}
				c, err := newOracleCase(seed, kind, stiff)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := c.reference()
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range methods {
					for _, kry := range []krylov.Method{krylov.MethodAuto, krylov.MethodArnoldi} {
						treat := want(kind, m, kry)
						t.Run(fmt.Sprintf("%v/seed%d/%v/%v/%s", kind, seed, m, kry, treat), func(t *testing.T) {
							c.check(t, ref, m, kry, treat)
						})
					}
				}
			}
		}
	}
}

// check runs one mode and asserts its accuracy and the treatment it took.
func (c *oracleCase) check(t *testing.T, ref [][]float64, m Method, kry krylov.Method, treat string) {
	res, err := c.run(m, kry)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := c.maxDeviation(res, ref)
	if err != nil {
		t.Fatal(err)
	}
	st := &res.Stats
	// Stated tolerances in volts (amperes for the inductor current) on
	// responses of order 0.1: ten budgets for I-/R-MATEX, whose ~20 spots
	// each spend at most one; 1e-4 for MEXP, which walks 4,000 clamped
	// segments.
	tol := 10 * oracleTol
	if m == MEXP {
		tol = 1e-4
	}
	if dev > tol {
		t.Errorf("max deviation from the dense reference %g > %g", dev, tol)
	}
	segs, flat := c.segments()
	spots := st.Spots()
	if st.Rejected != 0 || m != MEXP && spots != segs {
		t.Fatalf("%d subspaces (%d rejected) over %d segments", spots, st.Rejected, segs)
	}
	augmented, dummies := spots-st.DeviationSpots, 0
	if len(st.Dims) > 1 {
		dummies = st.Dims[1] // zero start vectors
	}
	// A deviation ramp pays r2 and, unless B·u ends at zero, q at its end; a
	// flat segment pays for q only when it could not be carried (after an
	// augmented spot, or over the rounding residue of a corner time).
	if st.InputPairs > 2*st.DeviationSpots {
		t.Errorf("%d input pairs over %d deviation spots", st.InputPairs, st.DeviationSpots)
	}
	switch treat {
	case "eq5":
		if st.DeviationSpots != spots || st.InputPairs < segs-flat {
			t.Errorf("%d deviation spots of %d, %d input pairs over %d ramps", st.DeviationSpots, spots, st.InputPairs, segs-flat)
		}
	case "augmented":
		if st.DeviationSpots != 0 || st.LanczosSpots != 0 || st.InputPairs != 0 {
			t.Errorf("%d deviation spots, %d Lanczos spots, %d input pairs", st.DeviationSpots, st.LanczosSpots, st.InputPairs)
		}
	case "augmented-or-eq5":
		// Flat segments deviate, the first ramp augments, and deviation is
		// what reaches the Lanczos path.
		if st.DeviationSpots < flat || augmented == 0 || st.LanczosSpots > st.DeviationSpots || st.LanczosSpots < st.DeviationSpots-dummies {
			t.Errorf("%d deviation spots (%d flat segments), %d augmented, %d Lanczos", st.DeviationSpots, flat, augmented, st.LanczosSpots)
		}
	}
}

// TestRampTreatmentIsChosenByCost pins both outcomes of the per-ramp choice.
// On a mild symRC system (time constants at the segment scale) the run must
// move its ramps to the deviation treatment and come out cheaper than the
// all-augmented run -krylov arnoldi pins, within the same ten budgets of the
// dense reference. On a quasi-static PDN, where both treatments sit at the
// convergence protocol's floor, no ramp may leave augmented: deviation runs
// on exactly the flat segments, as the constant shift did before it.
func TestRampTreatmentIsChosenByCost(t *testing.T) {
	c, err := newOracleCase(1, oracleSymRC, false)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := c.reference()
	if err != nil {
		t.Fatal(err)
	}
	var pairs [2]int
	for i, kry := range []krylov.Method{krylov.MethodAuto, krylov.MethodArnoldi} {
		res, err := c.run(RMATEX, kry)
		if err != nil {
			t.Fatal(err)
		}
		if dev, err := c.maxDeviation(res, ref); err != nil || dev > 10*oracleTol {
			t.Errorf("%v: max deviation from the dense reference %g (%v), want <= %g", kry, dev, err, 10*oracleTol)
		}
		pairs[i] = res.Stats.SolvePairs
		if _, flat := c.segments(); kry == krylov.MethodAuto && res.Stats.DeviationSpots <= flat {
			t.Errorf("%d deviation spots over %d flat segments: no ramp switched", res.Stats.DeviationSpots, flat)
		}
	}
	if pairs[0] >= pairs[1] {
		t.Errorf("%d substitution pairs with the choice, %d all-augmented: the choice did not pay", pairs[0], pairs[1])
	}

	sys := pdnSystem(t, 1)
	res, err := Simulate(sys, RMATEX, Options{Tstop: 10e-9})
	if err != nil {
		t.Fatal(err)
	}
	flat := 0
	spots := sys.GTS(10e-9)
	b0, b1 := make([]float64, sys.N), make([]float64, sys.N)
	for i := 0; i+1 < len(spots); i++ {
		sys.EvalB(spots[i], b0, nil)
		sys.EvalB(spots[i+1], b1, nil)
		var diff float64
		for k := range b0 {
			diff = math.Max(diff, math.Abs(b1[k]-b0[k]))
		}
		if diff <= 1e-12 {
			flat++
		}
	}
	st := &res.Stats
	if flat == 0 || flat == st.Spots() || st.DeviationSpots != flat || st.MP() > 4 {
		t.Errorf("%d deviation spots over %d flat segments of %d (m_p %d): a floor-dimension ramp left augmented", st.DeviationSpots, flat, st.Spots(), st.MP())
	}
	// One solve per flat segment that follows a ramp (q is not kept across
	// an augmented spot); the first has q(0) = x_DC.
	if st.InputPairs >= flat {
		t.Errorf("%d input pairs over %d flat segments", st.InputPairs, flat)
	}
}

// TestOracleSweepRMATEX is the sizing run behind EXPERIMENTS.md "Ramp
// segments on the deviation": 400 seeds of symRC, mild and stiff, R-MATEX on
// the default Krylov setting, every one held to ten budgets of the dense
// reference; the totals it logs are the table's row.
func TestOracleSweepRMATEX(t *testing.T) {
	if testing.Short() {
		t.Skip("800 dense-oracle runs")
	}
	for _, stiff := range []bool{false, true} {
		t.Run(fmt.Sprintf("stiff=%v", stiff), func(t *testing.T) {
			t.Parallel()
			var worst float64
			var pairs, input, devSpots, spots, rejected int
			for seed := int64(1); seed <= 400; seed++ {
				c, err := newOracleCase(seed, oracleSymRC, stiff)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := c.reference()
				if err != nil {
					t.Fatal(err)
				}
				res, err := c.run(RMATEX, krylov.MethodAuto)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				dev, err := c.maxDeviation(res, ref)
				if err != nil || dev > 10*oracleTol {
					t.Errorf("seed %d: max deviation %g (%v), want <= %g", seed, dev, err, 10*oracleTol)
				}
				worst = math.Max(worst, dev)
				st := &res.Stats
				pairs, input, devSpots = pairs+st.SolvePairs, input+st.InputPairs, devSpots+st.DeviationSpots
				spots, rejected = spots+st.Spots(), rejected+st.Rejected
			}
			t.Logf("worst %.2g V, %d pairs (%d on inputs), %d of %d spots on deviation, %d rejected",
				worst, pairs, input, devSpots, spots, rejected)
		})
	}
}

// TestExhaustedBasisIsNotTrusted pins the systems on which one spot's
// posterior estimate stalls above the budget and the augmented subspace
// runs to the full dimension (or to a rounding-level breakdown just below
// it). Generate used to accept that projection as exact and the waveform
// came out 3 mV to 0.27 V wrong; it now has to pass an explicit residual
// check, fails it, and the driver's split-retry lands within a few budgets
// of the dense reference.
func TestExhaustedBasisIsNotTrusted(t *testing.T) {
	for _, cs := range []struct {
		kind oracleKind
		seed int64
	}{{oracleSymRC, 37}, {oracleSymRC, 150}, {oracleSymRC, 198}, {oracleUnsymRL, 160}, {oracleUnsymRL, 284}} {
		c, err := newOracleCase(cs.seed, cs.kind, true)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := c.reference()
		if err != nil {
			t.Fatal(err)
		}
		for _, kry := range []krylov.Method{krylov.MethodAuto, krylov.MethodArnoldi} {
			res, err := c.run(RMATEX, kry)
			if err != nil {
				t.Fatalf("%v seed %d %v: %v", cs.kind, cs.seed, kry, err)
			}
			dev, err := c.maxDeviation(res, ref)
			if err != nil {
				t.Fatalf("%v seed %d %v: %v", cs.kind, cs.seed, kry, err)
			}
			if dev > 10*oracleTol {
				t.Errorf("%v seed %d %v: max deviation from the dense reference %g > %g (m_p %d of %d, %d rejected)",
					cs.kind, cs.seed, kry, dev, 10*oracleTol, res.Stats.MP(), c.sys.N+2, res.Stats.Rejected)
			}
		}
	}
}

// FuzzMatexVsDense lets the fuzzer pick the system, the mode and the Krylov
// process. The run must end in an error or in a finite waveform on the
// requested grid within a bounded number of steps — never a panic — and
// within a loose bound of the dense reference: I-MATEX and R-MATEX on every
// draw, MEXP on every draw but the two kinds it was never vouched for on.
// Both are read off the run's Stats. On a singular C it answers for the
// regularized C+δI. And when one of its standard subspaces grew past three
// quarters of the system the posterior estimate no longer says anything
// about the answer: the unscaled augmented operator (C⁻¹-scaled input
// columns of 1e19 against ‖A‖ ≈ 1e13) lets it pass while the waveform is off
// by anything up to overflow — 51 of the 52 wrong MEXP answers in 477 runs
// over seeds 1–78 sit there, against 229 draws that stay checked (the 52nd,
// symRC seed 63 under Arnoldi at m_p = 27 of 36, is 0.12 off with nothing
// rejected, here and before PR 17). That is an open solver bug, not a
// property of the test: EXPERIMENTS.md "Oracle finding", ROADMAP item 14.
func FuzzMatexVsDense(f *testing.F) {
	f.Add(int64(7), uint8(oracleSymRC), uint8(2), false)    // R-MATEX: treatment chosen per ramp
	f.Add(int64(8), uint8(oracleSingC), uint8(2), true)     // R-MATEX: deviation throughout, rational operator
	f.Add(int64(9), uint8(oracleUnsymRL), uint8(1), true)   // I-MATEX: deviation throughout, LU(G)
	f.Add(int64(10), uint8(oracleSymRC), uint8(0), false)   // MEXP: treatment chosen per segment
	f.Add(int64(11), uint8(oracleSymRC), uint8(2), true)    // R-MATEX: augmented throughout (Arnoldi pinned)
	f.Add(int64(12), uint8(oracleUnsymRL), uint8(2), false) // R-MATEX: augmented throughout (unsymmetric)
	f.Add(int64(13), uint8(oracleSingC), uint8(1), false)   // I-MATEX: deviation throughout on Lanczos
	f.Fuzz(func(t *testing.T, seed int64, kind, mode uint8, arnoldi bool) {
		k := oracleKind(kind % uint8(oracleKinds))
		m := []Method{MEXP, IMATEX, RMATEX}[mode%3]
		kry := krylov.MethodAuto
		if arnoldi {
			kry = krylov.MethodArnoldi
		}
		c, err := newOracleCase(seed, k, m != MEXP)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := c.reference()
		if err != nil {
			t.Skip(err) // the draw is singular to the dense oracle itself
		}
		res, err := c.run(m, kry)
		if err != nil {
			return // a refusal is an answer
		}
		dev, err := c.maxDeviation(res, ref)
		if err != nil {
			t.Fatal(err)
		}
		// One step per output or segment end, however the segments are cut.
		segs, _ := c.segments()
		if m == MEXP {
			segs += int(oracleTstop / mexpStep)
		}
		if res.Stats.Steps > 2*(segs+len(c.evals)) {
			t.Fatalf("%d steps for %d segments and %d outputs", res.Stats.Steps, segs, len(c.evals))
		}
		if m == MEXP && (res.Stats.Regularized || 4*res.Stats.MP() > 3*c.sys.N) {
			return
		}
		if tol := 1e-3; dev > tol {
			t.Fatalf("%v/%v/%v seed %d: deviation %g > %g", k, m, kry, seed, dev, tol)
		}
	})
}
