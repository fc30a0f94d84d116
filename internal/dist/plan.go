package dist

import (
	"math"
	"sort"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/waveform"
)

// groupSpots returns, per group, the union of its members' local transition
// spots inside (0, Tstop] — the GTS of the group's sources taken alone. A
// node simulating the group generates one Krylov subspace per segment, and
// there are as many segments as spots here (the one starting at 0 is
// counted by the spot closing the window).
func groupSpots(sys *circuit.System, groups []Task, tstop float64) [][]float64 {
	spots := make([][]float64, len(groups))
	var members []waveform.Waveform
	for g, grp := range groups {
		members = members[:0]
		for _, k := range grp.InputIdx {
			members = append(members, sys.Inputs[k].Wave)
		}
		spots[g] = waveform.GTS(members, tstop)[1:] // drop the leading 0
	}
	return spots
}

// planCost orders task costs: Krylov spots first (each is m substitution
// pairs), member inputs second (each is a waveform evaluation per segment
// or step — the only cost that differs between fixed-step tasks).
type planCost struct{ spots, inputs int }

func (a planCost) less(b planCost) bool {
	if a.spots != b.spots {
		return a.spots < b.spots
	}
	return a.inputs < b.inputs
}

// planTasks merges bump-feature groups into exactly min(len(groups), nodes)
// tasks so that the costliest task is as cheap as possible. spots[g] are
// group g's transition spots inside (0, Tstop] (groupSpots); a nil spots
// charges none, which leaves the fixed-step methods — whose work is set by
// the step count, not the spots — balanced by input count alone.
//
// Groups are ordered by first transition and cut into contiguous runs:
// groups adjacent in time share spots, or at least their quiet stretches,
// so a run's union stays small, where dealing groups out round-robin would
// hand every node nearly the whole GTS. The cut points are chosen by
// dynamic programming over prefixes. With nodes ≥ len(groups) the only
// admissible cut is one group per task, so the plan is groups itself.
// Tasks come back ordered by their lowest member GroupID (which a merged
// Task carries as its own), the order superposition sums them in; row i
// records task i's member groups and the spots it was charged.
//
// planTasks is a pure function of its arguments: equal node counts give
// equal plans, in-process or over RPC.
func planTasks(groups []Task, spots [][]float64, nodes int) ([]Task, []TaskReport) {
	G := len(groups)
	if G == 0 {
		return nil, nil
	}
	P := max(1, min(nodes, G))
	if spots == nil {
		spots = make([][]float64, G)
	}

	// order: groups by first transition, ties by GroupID.
	order := make([]int, G)
	for i := range order {
		order[i] = i
	}
	first := func(g int) float64 {
		if len(spots[g]) == 0 {
			return math.Inf(1)
		}
		return spots[g][0]
	}
	sort.SliceStable(order, func(a, b int) bool { return first(order[a]) < first(order[b]) })

	// Every spot becomes its index in the merged list of all spots, so the
	// size of a run's union is a count of distinct small integers.
	var merged []float64
	for _, s := range spots {
		merged = append(merged, s...)
	}
	sort.Float64s(merged)
	uniq := merged[:0]
	for _, t := range merged {
		if len(uniq) == 0 || t-uniq[len(uniq)-1] > waveform.SpotEps {
			uniq = append(uniq, t)
		}
	}
	ids := make([][]int, G)
	for g, s := range spots {
		ids[g] = make([]int, len(s))
		for k, t := range s {
			ids[g][k] = sort.SearchFloat64s(uniq, t-waveform.SpotEps)
		}
	}

	// cost[i][l-1] is the cost of the run order[i : i+l]. No run is longer
	// than L: every other task keeps at least one group.
	L := G - P + 1
	cost := make([][]planCost, G)
	seen := make([]int, len(uniq)) // seen[id] == i+1: id already in the run starting at i
	for i := range cost {
		cost[i] = make([]planCost, 0, min(L, G-i))
		var c planCost
		for j := i; j < i+cap(cost[i]); j++ {
			g := order[j]
			for _, id := range ids[g] {
				if seen[id] != i+1 {
					seen[id] = i + 1
					c.spots++
				}
			}
			c.inputs += len(groups[g].InputIdx)
			cost[i] = append(cost[i], c)
		}
	}

	// best[p][j-p]: the smallest achievable largest-task cost when the first
	// j groups (in order) form p tasks; cut[p][j-p]: where the last of them
	// starts. A prefix must leave a group for each remaining task, so j runs
	// over [p, p+L) only — with nodes ≥ G that is one chain of one-group
	// tasks, the degenerate case of the same recurrence.
	unreachable := planCost{spots: math.MaxInt}
	best := make([][]planCost, P+1)
	cut := make([][]int, P+1)
	for p := range best {
		best[p] = make([]planCost, L)
		cut[p] = make([]int, L)
		for k := range best[p] {
			best[p][k] = unreachable
		}
	}
	best[0][0] = planCost{}
	for p := 1; p <= P; p++ {
		for j := p; j < p+L; j++ {
			for i := max(p-1, j-L); i < j; i++ {
				c := best[p-1][i-(p-1)]
				if c == unreachable {
					continue
				}
				if c.less(cost[i][j-i-1]) {
					c = cost[i][j-i-1]
				}
				if c.less(best[p][j-p]) {
					best[p][j-p], cut[p][j-p] = c, i
				}
			}
		}
	}

	// Walk the cuts back from the last task, then hand every group to its
	// task in GroupID order, so a one-group task is the group itself.
	type cutTask struct {
		Task
		TaskReport
	}
	cuts := make([]cutTask, P)
	taskOf := make([]int, G)
	for p, j := P, G; p >= 1; p-- {
		i := cut[p][j-p]
		for _, g := range order[i:j] {
			taskOf[g] = p - 1
		}
		cuts[p-1].Spots = cost[i][j-i-1].spots
		j = i
	}
	for g, grp := range groups {
		c := &cuts[taskOf[g]]
		if len(c.Groups) == 0 {
			c.GroupID = grp.GroupID
		}
		c.Groups = append(c.Groups, grp.GroupID)
		c.InputIdx = append(c.InputIdx, grp.InputIdx...)
	}
	sort.Slice(cuts, func(a, b int) bool { return cuts[a].GroupID < cuts[b].GroupID })
	tasks := make([]Task, P)
	rows := make([]TaskReport, P)
	for p, c := range cuts {
		tasks[p], rows[p] = c.Task, c.TaskReport
	}
	return tasks, rows
}
