package sweep

import (
	"context"
	"fmt"
	"math"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/superpose"
	"github.com/matex-sim/matex/internal/transient"
)

// Options configures a sweep run.
type Options struct {
	// Base is the shared solver configuration every variant runs under:
	// Tstop, Probes, Tol, Gamma, Cache, Workspaces, and so on. Its
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
	// Sim folds the transient work counters across all lanes; with a
	// shared cache, Sim.Factorizations counts factorizations computed
	// once for the whole sweep.
	Sim transient.Stats `json:"sim"`
	// Panel reports the cross-variant solve batching (zero when the
	// broker was disabled or the sweep ran a single lane).
	Panel sparse.PanelStats `json:"panel"`
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
	if len(variants) == 0 {
		return fmt.Errorf("sweep: no variants")
	}
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

// Run executes variants of sys as one batched sweep. See the package
// comment for the sharing model. The returned error is the first lane
// failure; on error the remaining lanes are canceled via the run context.
func Run(sys *circuit.System, variants []Variant, opts Options) (*Result, error) {
	if len(variants) == 0 {
		return nil, fmt.Errorf("sweep: no variants")
	}
	if err := superpose.CheckBase(&opts.Base); err != nil {
		return nil, fmt.Errorf("sweep: %w; use the sweep hooks", err)
	}
	cvs, err := compile(sys, variants)
	if err != nil {
		return nil, err
	}
	base := opts.Base
	if base.Cache == nil {
		base.Cache = sparse.NewCache(0)
	}
	noShare := len(opts.ResumeVariants) > 0
	groups := planGroups(cvs, opts.Method, noShare)
	lanes := planLanes(sys, cvs, groups)

	res := &Result{Variants: make([]VariantResult, len(variants))}
	for v := range cvs {
		res.Variants[v].Name = cvs[v].name
	}
	res.Stats.Variants = len(variants)
	res.Stats.Lanes = len(lanes)

	// Every variant is a fold over its group's lanes: the representative of
	// a directly integrated group is that lane times 1 (its rows pass
	// through), every other variant is derived — c·direct, or x_sup +
	// c·x_load for a split group. Each streams as its lanes pass a sample.
	folds := make([]*superpose.Fold, len(variants))
	feeds := make([][]feed, len(lanes))
	for _, g := range groups {
		for _, m := range g.members {
			ids, addends := []int{g.direct}, []superpose.Addend{{Coef: m.c}}
			if g.direct < 0 {
				ids, addends = []int{g.sup, g.load}, []superpose.Addend{{Coef: 1}, {Coef: m.c}}
			}
			var emit func(t float64, row []float64)
			if opts.OnVariantSample != nil {
				emit = func(t float64, row []float64) { opts.OnVariantSample(m.v, t, row) }
			}
			folds[m.v] = superpose.NewFold(superpose.Plan{Probes: base.Probes, Addends: addends}, emit)
			for j, li := range ids {
				feeds[li] = append(feeds[li], feed{folds[m.v], j})
			}
		}
	}

	// Join every lane before any of them starts, so the first barrier
	// round already waits for the full fleet. All lanes run at once: one
	// held back would stall the barrier the others park at.
	var broker *sparse.PanelBroker
	joined := make([]*sparse.PanelLane, len(lanes))
	if len(lanes) > 1 {
		broker = sparse.NewPanelBroker()
		for i := range lanes {
			joined[i] = broker.Join()
		}
	}
	ctx := base.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	results, err := superpose.FanOut(ctx, len(lanes), len(lanes), func(ctx context.Context, i int) (*transient.Result, error) {
		ln := lanes[i]
		lopts := base
		lopts.Ctx = ctx
		lopts.ActiveInputs = ln.active
		if joined[i] != nil {
			defer joined[i].Leave()
			lopts.Panel = joined[i]
		}
		lopts.OnSample = func(t float64, row []float64) {
			for _, fd := range feeds[i] {
				fd.fold.Sample(fd.addend, t, row)
			}
		}
		var resume *transient.Checkpoint
		if v := ln.variant; v >= 0 {
			if opts.OnVariantCheckpoint != nil {
				lopts.OnCheckpoint = func(cp transient.Checkpoint) error {
					return opts.OnVariantCheckpoint(v, cp)
				}
			}
			if cp, ok := opts.ResumeVariants[v]; ok {
				resume = &cp
			}
		}
		var r *transient.Result
		var err error
		if resume != nil {
			r, err = transient.Resume(ln.sys, opts.Method, lopts, *resume)
		} else {
			r, err = transient.Simulate(ln.sys, opts.Method, lopts)
		}
		if err != nil {
			return nil, fmt.Errorf("sweep: lane %d: %w", i, err)
		}
		for _, fd := range feeds[i] {
			if err := fd.fold.Land(fd.addend, r); err != nil {
				return nil, fmt.Errorf("sweep: internal: %w", err)
			}
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}

	for _, r := range results {
		sim, s := &res.Stats.Sim, &r.Stats
		sim.Add(s)
		sim.DCTime += s.DCTime
		sim.FactorTime += s.FactorTime
		sim.TransientTime += s.TransientTime
	}
	if broker != nil {
		res.Stats.Panel = broker.Stats()
	}

	for _, g := range groups {
		for _, m := range g.members {
			r, err := folds[m.v].Result()
			if err != nil {
				return nil, fmt.Errorf("sweep: internal: %w", err)
			}
			vr := &res.Variants[m.v]
			vr.Times, vr.Probes, vr.Final = r.Times, r.Probes, r.Final
			if g.direct < 0 || m.v != g.rep {
				vr.Shared = true
				res.Stats.SharedVariants++
			}
		}
	}
	return res, nil
}

// feed is one lane's place in a variant's fold.
type feed struct {
	fold   *superpose.Fold
	addend int
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
		best, bestAbs := g.rep, 0.0
		for _, m := range g.members {
			if abs := math.Abs(m.c); abs > bestAbs {
				best, bestAbs = m.v, abs
			}
		}
		if best != g.rep {
			var cBest float64
			for _, m := range g.members {
				if m.v == best {
					cBest = m.c
				}
			}
			for i := range g.members {
				g.members[i].c /= cBest
			}
			g.rep = best
		}
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
