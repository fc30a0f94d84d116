package sweep

import (
	"fmt"
	"math"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/superpose"
	"github.com/matex-sim/matex/internal/transient"
)

// Options configures a sweep run.
type Options struct {
	// Base is the shared solver configuration every variant runs under:
	// Tstop, Probes, Tol, Gamma, Cache, Krylov, and so on. Its
	// OnSample, OnCheckpoint and ActiveInputs fields are owned by the
	// engine and must be left nil; use the per-variant hooks below. A nil
	// Base.Cache is replaced by a sweep-private cache so the variants
	// still share one factorization lineage.
	Base transient.Options
	// Method is the integrator every variant runs (mixed-method sweeps
	// are not supported; submit separate sweeps).
	Method transient.Method
	// OnVariantSample, when non-nil, streams output samples as the lanes
	// advance: a directly integrated variant's as its lane records them, a
	// derived (shared) variant's as soon as every lane it is combined from
	// has recorded that sample. Variants stream concurrently, so the hook
	// must be safe to call from multiple goroutines; within one variant,
	// samples arrive one at a time and in time order. The probes row
	// aliases engine memory; copy to retain.
	OnVariantSample func(variant int, t float64, probes []float64) `json:"-"`
	// OnVariantCheckpoint, when non-nil, receives restartable snapshots
	// for directly integrated variants every Base.CheckpointEvery
	// accepted steps (variants served by sharing are re-run on resume
	// instead). May be called concurrently. A non-nil return aborts the
	// sweep.
	OnVariantCheckpoint func(variant int, cp transient.Checkpoint) error `json:"-"`
	// ResumeVariants re-enters interrupted variants at their last
	// checkpoint (key = variant index). A resumed sweep runs every
	// variant on its own lane (sharing disabled) so the checkpoint
	// contract stays per-variant; variants without an entry restart from
	// DC.
	ResumeVariants map[int]transient.Checkpoint `json:"-"`
}

// VariantResult is one variant's waveform.
type VariantResult struct {
	// Name echoes the variant's (defaulted) name.
	Name string `json:"name"`
	// Times and Probes are the output grid and probe rows, exactly as a
	// solo transient run of this variant would record them.
	Times  []float64   `json:"times,omitempty"`
	Probes [][]float64 `json:"probes,omitempty"`
	// Final is the state at Tstop.
	Final []float64 `json:"final,omitempty"`
	// Shared marks results served by linearity (scaled or recombined from
	// a representative lane) rather than a dedicated integration.
	Shared bool `json:"shared,omitempty"`
}

// Stats aggregates the work of a sweep.
type Stats struct {
	// Variants is the number requested; Lanes the number of integrations
	// actually run; SharedVariants the variants served by linearity.
	Variants       int `json:"variants"`
	Lanes          int `json:"lanes"`
	SharedVariants int `json:"shared_variants"`
	// Sim folds the lanes' solver work by superpose.Run's rule, so its
	// TransientTime is the slowest lane's; with a shared cache,
	// Sim.Factorizations counts factorizations computed once for the sweep.
	Sim transient.Stats `json:"sim"`
}

// Result is a completed sweep: one VariantResult per requested variant,
// in input order.
type Result struct {
	Variants []VariantResult `json:"variants"`
	Stats    Stats           `json:"stats"`
}

// Validate resolves variants against sys without running anything: it
// reports the spec errors Run would (no load sources, duplicate names,
// unknown scale or override targets, malformed waveforms), so a serving
// layer can reject a bad sweep at submit time instead of at run time.
func Validate(sys *circuit.System, variants []Variant) error {
	_, err := compile(sys, variants)
	return err
}

// lane is one integration to execute.
type lane struct {
	sys     *circuit.System
	active  []bool // input mask; nil = all
	variant int    // >= 0: this lane is exactly that variant's waveform
}

// member ties a variant to its group representative: v's load response
// equals c times the representative's.
type member struct {
	v int
	c float64
}

// group is a set of collinear variants served together.
type group struct {
	rep     int // variant index of the representative (|c| maximal, c ≡ 1)
	members []member
	// lanes resolved by planLanes:
	direct int // lane integrating the representative's full waveform (-1 when split)
	sup    int // supplies-only lane (-1 unless split)
	load   int // loads-only representative lane (-1 unless split)
}

// Run executes variants of sys as one sweep. See the package comment for
// the sharing model. The returned error is the first lane failure; on error
// the remaining lanes are canceled via the run context.
func Run(sys *circuit.System, variants []Variant, opts Options) (*Result, error) {
	cvs, err := compile(sys, variants)
	if err != nil {
		return nil, err
	}
	noShare := len(opts.ResumeVariants) > 0
	groups := planGroups(cvs, opts.Method, noShare)
	lanes := planLanes(sys, cvs, groups)

	// Every variant is an output over its group's lanes: the representative
	// of a directly integrated group is that lane times 1 (its rows pass
	// through), every other variant is derived — c·direct, or x_sup +
	// c·x_load for a split group. Each streams as its lanes pass a sample.
	outs := make([]superpose.Output, len(variants))
	for _, g := range groups {
		for _, m := range g.members {
			out := &outs[m.v]
			out.Plan.Probes = opts.Base.Probes
			out.Lanes, out.Plan.Addends = []int{g.direct}, []superpose.Addend{{Coef: m.c}}
			if g.direct < 0 {
				out.Lanes, out.Plan.Addends = []int{g.sup, g.load}, []superpose.Addend{{Coef: 1}, {Coef: m.c}}
			}
			if opts.OnVariantSample != nil {
				out.Emit = func(t float64, row []float64) { opts.OnVariantSample(m.v, t, row) }
			}
		}
	}

	// All lanes run at once: a derived variant's rows leave only when every
	// lane it is combined from has passed them, so a lane held back would
	// hold back the rows of every variant that depends on it. A resumed
	// sweep shares nothing, so every lane is a variant's.
	results, _, sim, err := superpose.Run(opts.Base, opts.Method, len(lanes), len(lanes), outs, func(i int, lopts transient.Options) (*transient.Result, error) {
		ln := lanes[i]
		lopts.ActiveInputs = ln.active
		if opts.OnVariantCheckpoint != nil && ln.variant >= 0 {
			lopts.OnCheckpoint = func(cp transient.Checkpoint) error { return opts.OnVariantCheckpoint(ln.variant, cp) }
		}
		var r *transient.Result
		var err error
		if cp, ok := opts.ResumeVariants[ln.variant]; ok {
			r, err = transient.Resume(ln.sys, opts.Method, lopts, cp)
		} else {
			r, err = transient.Simulate(ln.sys, opts.Method, lopts)
		}
		if err != nil {
			return nil, fmt.Errorf("sweep: lane %d: %w", i, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{Variants: make([]VariantResult, len(variants))}
	res.Stats = Stats{Variants: len(variants), Lanes: len(lanes), Sim: sim}
	for _, g := range groups {
		for _, m := range g.members {
			r, vr := results[m.v], &res.Variants[m.v]
			vr.Name, vr.Times, vr.Probes, vr.Final = cvs[m.v].name, r.Times, r.Probes, r.Final
			if g.direct < 0 || m.v != g.rep {
				vr.Shared = true
				res.Stats.SharedVariants++
			}
		}
	}
	return res, nil
}

// planGroups partitions the variants into collinear groups. With sharing
// off (or on resume) every variant is its own singleton group.
func planGroups(cvs []compiled, method transient.Method, noShare bool) []group {
	var groups []group
	for v := range cvs {
		if !noShare {
			placed := false
			for gi := range groups {
				g := &groups[gi]
				if c, ok := cvs[v].collinearWith(&cvs[g.rep]); ok {
					g.members = append(g.members, member{v: v, c: c})
					placed = true
					break
				}
			}
			if placed {
				continue
			}
		}
		groups = append(groups, group{rep: v, members: []member{{v: v, c: 1}}})
	}
	// Re-anchor each group on its largest-magnitude member, so every
	// derived member scales a representative down (|c| <= 1) and the
	// Krylov error bound of the representative covers the whole group.
	for gi := range groups {
		g := &groups[gi]
		best := g.members[0]
		for _, m := range g.members[1:] {
			if math.Abs(m.c) > math.Abs(best.c) {
				best = m
			}
		}
		for i := range g.members {
			g.members[i].c /= best.c
		}
		g.rep = best.v
	}
	// TRAdaptive picks its step grid from the solution, so the two
	// component integrations of a split group would land on different
	// grids; degrade distinct-scale groups to solo lanes there.
	if method == transient.TRAdaptive {
		var out []group
		for _, g := range groups {
			if sameScales(g.members) {
				out = append(out, g)
				continue
			}
			for _, m := range g.members {
				out = append(out, group{rep: m.v, members: []member{{v: m.v, c: 1}}})
			}
		}
		groups = out
	}
	return groups
}

func sameScales(ms []member) bool {
	for _, m := range ms {
		if m.c != 1 {
			return false
		}
	}
	return true
}

// planLanes resolves groups into concrete integrations.
func planLanes(sys *circuit.System, cvs []compiled, groups []group) []lane {
	hasSupply := false
	for _, in := range sys.Inputs {
		if in.Supply {
			hasSupply = true
			break
		}
	}
	var lanes []lane
	add := func(l lane) int {
		lanes = append(lanes, l)
		return len(lanes) - 1
	}
	// No variant ever touches a supply input (compile only maps load
	// sources), so the supplies-only component is identical across groups
	// whose override shapes match: one lane serves them all. The output
	// grid derives from the system's waveform structure — which the
	// shape fingerprint captures — not from the input values, so the
	// shared lane lands on every such group's grid.
	supByShape := map[string]int{}
	for gi := range groups {
		g := &groups[gi]
		g.direct, g.sup, g.load = -1, -1, -1
		repSys := cvs[g.rep].system(sys)
		if sameScales(g.members) || !hasSupply {
			// Copies of one exact waveform, or a pure load deck whose whole
			// response scales: the representative's lane serves every
			// member, times 1 or times c.
			g.direct = add(lane{sys: repSys, variant: g.rep})
			continue
		}
		// Superposition split: x_m(t) = x_sup(t) + c_m · x_load(t). Both
		// components run on the representative's system with an input
		// mask, and share its output grid (the grid derives from the
		// waveforms, not the solution).
		supMask := make([]bool, len(sys.Inputs))
		loadMask := make([]bool, len(sys.Inputs))
		for i, in := range sys.Inputs {
			supMask[i] = in.Supply
			loadMask[i] = !in.Supply
		}
		if si, ok := supByShape[cvs[g.rep].shape]; ok {
			g.sup = si
		} else {
			g.sup = add(lane{sys: repSys, active: supMask, variant: -1})
			supByShape[cvs[g.rep].shape] = g.sup
		}
		g.load = add(lane{sys: repSys, active: loadMask, variant: -1})
	}
	return lanes
}
