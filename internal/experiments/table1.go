package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/dense"
	"github.com/matex-sim/matex/internal/krylov"
	"github.com/matex-sim/matex/internal/pdn"
	"github.com/matex-sim/matex/internal/transient"
)

// Table1Row is one line of the paper's Table 1: MEXP vs I-MATEX vs R-MATEX
// on a stiff RC mesh.
type Table1Row struct {
	Method    string
	MA        float64 // average Krylov dimension m_a
	MP        int     // peak Krylov dimension m_p
	ErrPct    float64 // max error vs the exact PWL response, % of dynamic range
	Speedup   float64 // transient-time speedup over MEXP ("-" for MEXP = 1)
	Stiffness float64 // measured Re(λmin)/Re(λmax)
}

// Table1Config parameterizes the stiff-mesh comparison.
type Table1Config struct {
	// Specs lists the meshes (default pdn.Table1Cases()).
	Specs []pdn.StiffMeshSpec
	// Tstop and Step follow the paper: [0, 0.3 ns] with 5 ps output steps.
	Tstop, Step float64
	// Tol is the Krylov error budget.
	Tol float64
}

func (c Table1Config) withDefaults() Table1Config {
	if len(c.Specs) == 0 {
		c.Specs = pdn.Table1Cases()
	}
	if c.Tstop <= 0 {
		c.Tstop = 0.3e-9
	}
	if c.Step <= 0 {
		c.Step = 5e-12
	}
	if c.Tol <= 0 {
		c.Tol = 1e-7
	}
	return c
}

// RunTable1 regenerates Table 1. Rows come in triples (MEXP, I-MATEX,
// R-MATEX) per stiffness level. The error column is measured against each
// mesh's exact piecewise-linear response, which has no discretisation error
// of its own: one dense Expm of the augmented system per interval between
// output times and drive corners — tens of seconds on a 20×20 mesh.
func RunTable1(cfg Table1Config) ([]Table1Row, error) {
	cfg = cfg.withDefaults()
	var rows []Table1Row
	for _, spec := range cfg.Specs {
		ckt, err := spec.Build()
		if err != nil {
			return nil, err
		}
		sys, err := buildSystem(ckt)
		if err != nil {
			return nil, err
		}
		fastEig, slowEig, err := pdn.SpectralEdges(sys, 300)
		if err != nil {
			return nil, err
		}
		stiff := fastEig / slowEig
		probes := probeSample(sys, 16)
		evals := make([]float64, 0, int(cfg.Tstop/cfg.Step)+1)
		for t := 0.0; t <= cfg.Tstop+1e-18; t += cfg.Step {
			evals = append(evals, t)
		}
		// The drive's own breakpoints, not sys.GTS: the reference shares no
		// spot logic with the MATEX driver it measures.
		var corners []float64
		if spec.Drive != nil {
			corners = spec.Drive.Transitions(nil, cfg.Tstop)
		}
		ref, err := exactReference(sys, probes, corners, evals)
		if err != nil {
			return nil, fmt.Errorf("table1: exact reference on stiffness %.1e: %w", stiff, err)
		}
		var mexpTime time.Duration
		for _, m := range []transient.Method{transient.MEXP, transient.IMATEX, transient.RMATEX} {
			// γ at the order of the step sizes, per the paper. MEXP is
			// sub-stepped at the paper's 5 ps (its standard subspace
			// degrades as h·‖A‖ grows); the spectral transforms reuse
			// their subspaces across whole segments.
			// Pin the paper's Arnoldi process: Table 1 compares the subspace
			// dimensions the three spectral formulations need, and the
			// symmetric Lanczos fast path (with the deviation
			// treatment that feeds it) would change what is being measured. The fast
			// path has its own benchmarks (scripts/bench.sh).
			o := transient.Options{
				Tstop: cfg.Tstop, Probes: probes, EvalTimes: evals,
				Tol: cfg.Tol, Gamma: cfg.Step, MaxDim: 256,
				Krylov: krylov.MethodArnoldi,
			}
			if m == transient.MEXP {
				// Sub-step so that h·‖A‖ stays near 300, where the standard
				// subspace converges reliably within the dimension budget
				// (expokit-style step restriction). Never above the paper's
				// 5 ps output step.
				o.MaxStep = math.Min(cfg.Step, 300/fastEig)
			}
			res, err := transient.Simulate(sys, m, o)
			if err != nil {
				return nil, fmt.Errorf("table1: %v on stiffness %.1e: %w", m, stiff, err)
			}
			row := Table1Row{
				Method:    m.String(),
				MA:        res.Stats.MA(),
				MP:        res.Stats.MP(),
				ErrPct:    relErrPct(res, ref, len(probes)),
				Stiffness: stiff,
			}
			if m == transient.MEXP {
				mexpTime = res.Stats.TransientTime
				row.Speedup = 1
			} else if res.Stats.TransientTime > 0 {
				row.Speedup = float64(mexpTime) / float64(res.Stats.TransientTime)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// PrintTable1 renders rows in the paper's layout.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "Table 1: MEXP vs I-MATEX vs R-MATEX on stiff RC meshes\n")
	fmt.Fprintf(w, "%-10s %8s %6s %10s %10s %12s\n", "Method", "m_a", "m_p", "Err(%)", "Spdp", "Stiffness")
	for _, r := range rows {
		spdp := "--"
		if r.Speedup != 1 {
			spdp = fmt.Sprintf("%.0fX", r.Speedup)
		}
		fmt.Fprintf(w, "%-10s %8.1f %6d %10.4f %10s %12.1e\n", r.Method, r.MA, r.MP, r.ErrPct, spdp, r.Stiffness)
	}
}

// exactReference is the exact piecewise-linear response of sys
// (dense.PWLResponse) at the output times outs, on the probes, as the Result
// the error metrics read.
func exactReference(sys *circuit.System, probes []int, corners, outs []float64) (*transient.Result, error) {
	b := func(t float64) []float64 {
		v := make([]float64, sys.N)
		sys.EvalB(t, v, nil)
		return v
	}
	states, err := dense.PWLResponse(dense.FromRows(sys.C.Dense()), dense.FromRows(sys.G.Dense()), b, corners, outs)
	if err != nil {
		return nil, err
	}
	ref := &transient.Result{Times: outs}
	for _, x := range states {
		row := make([]float64, len(probes))
		for k, p := range probes {
			row[k] = x[p]
		}
		ref.Probes = append(ref.Probes, row)
	}
	return ref, nil
}
