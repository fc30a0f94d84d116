package dist

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"sync"
	"time"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/krylov"
	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/transient"
	"github.com/matex-sim/matex/internal/waveform"
)

// Task is one superposition subtask: the indices of the system inputs
// simulated together on one node — one bump-feature group as Partition
// returns it, or several of them merged by the planner (plan.go).
type Task struct {
	// GroupID numbers the group (the paper's "Group #"), in first-appearance
	// order over the system inputs; a merged task carries the lowest GroupID
	// among its members.
	GroupID int
	// InputIdx are indices into the system's Inputs slice.
	InputIdx []int
}

// Partition groups the system's time-varying inputs by transition-spot
// overlap: sources whose waveforms share a bump feature (identical delay,
// rise, width, fall, period — paper Fig. 3) or an identical transition
// signature land in the same group. Supply inputs (DC rails and static
// loads) carry no transient and stay with the DC baseline.
func Partition(sys *circuit.System, tstop float64) []Task {
	var cand []int
	var waves []waveform.Waveform
	for i := range sys.Inputs {
		if sys.Inputs[i].Supply {
			continue
		}
		cand = append(cand, i)
		waves = append(waves, sys.Inputs[i].Wave)
	}
	groups := waveform.Group(waves, tstop)
	tasks := make([]Task, len(groups))
	for g, members := range groups {
		idx := make([]int, len(members))
		for j, m := range members {
			idx[j] = cand[m]
		}
		tasks[g] = Task{GroupID: g, InputIdx: idx}
	}
	return tasks
}

// Config configures a distributed MATEX run.
type Config struct {
	// Base is the solver configuration every node runs under, with the
	// defaults transient.Options documents. Tstop, Step, Probes (recorded at
	// every GTS point), Tol, Gamma, MaxDim, Ordering and Krylov travel with
	// the subtask request. Cache is shared by the scheduler's DC solve and
	// the in-process subtasks (nil: a run-local one) and never crosses the
	// wire — matexd workers keep their own — so reusing one across Run
	// calls makes later runs refactorization-free.
	// Ctx cancels the run: nothing further is dispatched, in-process
	// subtasks abort at their next step boundary, RPC dispatches return
	// without waiting for their reply. OnSample receives the superposed rows
	// under transient.Simulate's contract — one at a time, in time order,
	// the row aliasing the returned Result's — as they leave: t = 0 (x_DC)
	// once the DC solve is done, every later GTS point once the slowest task
	// has passed it (in-process tasks stream, remote ones land whole). A run
	// that fails after rows have left returns the error all the same.
	// OnCheckpoint and ActiveInputs are engine-owned and must be nil; every
	// node emits on the GTS grid from zero state whatever EvalTimes and
	// InitialState say.
	// The plan gives every node one task and a task runs on one core, so
	// run one matexd per core (the plan is cut for the nodes present); the
	// in-process pool already occupies one core per task.
	Base transient.Options
	// Workers bounds in-flight subtasks and, for the default in-process
	// pool, is the node count the decomposition is cut for (zero:
	// GOMAXPROCS). With a Pool set, zero bounds in-flight subtasks by the
	// pool's node count and the cut follows the pool alone; the Table 3
	// harness sets 1 over a one-node-per-group pool so each node's runtime
	// is measured contention-free.
	Workers int
	// Pool overrides where subtasks run. Nil uses an in-process goroutine
	// pool of Workers nodes; NewRPCPool dispatches to matexd workers over
	// TCP; NewLocalPool is the in-process pool with an explicit node count.
	// The pool's node count decides how many tasks the bump-feature groups
	// are merged into. A pool holds no circuit and may be shared by runs on
	// different Systems, concurrently.
	Pool Pool
}

// Report carries the scheduling metrics of one distributed run, matching the
// columns the paper reports in Table 3.
type Report struct {
	// Groups is the number of bump-feature groups Partition found.
	Groups int
	// Tasks is the number of tasks dispatched: the groups merged into
	// min(Groups, pool nodes) tasks.
	Tasks int
	// DCTime is the one-shot DC operating point solve; it runs on the
	// scheduler while the tasks are out, so it adds to the wall time only
	// where it outlasts them.
	DCTime time.Duration
	// MaxNodeTime is the slowest node's wall time over all its phases — the
	// distributed makespan (the paper's t_total is DCTime + MaxNodeTime).
	MaxNodeTime time.Duration
	// MaxNodeTrTime is the slowest node's transient phase alone (the paper's
	// t_R-MATEX).
	MaxNodeTrTime time.Duration
	// Retried counts subtask dispatches repeated after a worker failure.
	Retried int
	// PerTask describes each dispatched task, in plan order.
	PerTask []TaskReport
	// TaskStats holds each task's solver work counters, indexed like
	// PerTask (the paper's per-node km comes from these).
	TaskStats []transient.Stats
}

// TaskReport is the plan and the scheduling record of one dispatched task.
type TaskReport struct {
	// Groups are the GroupIDs of the bump-feature groups merged into it.
	Groups []int
	// Spots is |∪ LTS| of those groups inside (0, Tstop], the cost the
	// planner charged the task (the paper's k); zero for the fixed-step
	// methods, which are not charged by spot.
	Spots int
	// Wait is how long the task queued for an in-flight slot.
	Wait time.Duration
	// Elapsed is the node's wall time for the task, all phases.
	Elapsed time.Duration
	// Retried counts its re-dispatches after worker failures.
	Retried int
	// Worker is the address of the matexd that solved it; empty in-process.
	Worker string
}

// subtaskRequest builds the solver configuration shared by every subtask:
// the wire-safe part of base, outputs on the shared GTS grid.
func subtaskRequest(method transient.Method, base *transient.Options, gts []float64) Request {
	return Request{
		Method:    method,
		Tstop:     base.Tstop,
		Step:      base.Step,
		Tol:       base.Tol,
		Gamma:     base.Gamma,
		MaxDim:    base.MaxDim,
		Probes:    append([]int(nil), base.Probes...),
		EvalTimes: gts,
		Ordering:  base.Ordering,
		Krylov:    base.Krylov,
	}
}

// Key names a circuit on the wire: the SHA-256 of its encoded zero-state
// view. Workers hold circuits by it and check it against the bytes they
// receive; a collision would be a silently wrong waveform, hence a
// cryptographic hash.
type Key [sha256.Size]byte

// System is one circuit as the distributed engine handles it: the stamped
// system (partition, DC point, GTS), the zero-state view every subtask
// integrates, and the view's wire form with its Key — encoded at most once,
// and only when an RPC pool first needs them. Pools do not hold circuits;
// the System travels with each task. Build one per circuit and share it
// across runs: it is read-only and safe for concurrent use.
type System struct {
	sys, sub *circuit.System

	wireOnce sync.Once
	blob     []byte
	key      Key
	wireErr  error
}

// NewSystem wraps sys for Run. The zero-state view has every time-varying
// input zero-based (u_g(t) - u_g(0)): the waveform a subtask integrates from
// a zero initial state. The matrices are shared with sys, not copied, so
// in-process factorizations remain valid for the view.
func NewSystem(sys *circuit.System) *System {
	if sys == nil {
		return &System{}
	}
	inputs := append([]circuit.Input(nil), sys.Inputs...)
	for i := range inputs {
		if !inputs[i].Supply {
			inputs[i].Wave = waveform.ZeroBased{W: inputs[i].Wave}
		}
	}
	sub := *sys
	sub.Inputs = inputs
	return &System{sys: sys, sub: &sub}
}

// wireSystem is the serialized form of the zero-state view: exactly what a
// worker needs to run transient.Simulate — matrices and inputs, no node
// names.
type wireSystem struct {
	N, NumNodes int
	C, G        *sparse.CSC
	Inputs      []circuit.Input
}

// wire returns the gob-encoded zero-state view and its key.
func (s *System) wire() ([]byte, Key, error) {
	s.wireOnce.Do(func() {
		var buf bytes.Buffer
		sub := s.sub
		err := gob.NewEncoder(&buf).Encode(wireSystem{
			N: sub.N, NumNodes: sub.NumNodes, C: sub.C, G: sub.G, Inputs: sub.Inputs,
		})
		if err != nil {
			s.wireErr = fmt.Errorf("dist: encoding system: %w", err)
			return
		}
		s.blob, s.key = buf.Bytes(), sha256.Sum256(buf.Bytes())
	})
	return s.blob, s.key, s.wireErr
}

// subtaskOptions assembles the transient.Options for one task against the
// zero-based system view. cache and workspaces are the node's shared
// resources: on the scheduler they are shared by every in-process subtask,
// on a matexd worker they are the worker's own (neither travels over RPC,
// like the paper's cluster machines) — so repeated subtasks reuse both the
// factorizations and the Krylov arenas of their predecessors. ctx (nil ok)
// cancels the subtask mid-integration; it is per-process too.
func subtaskOptions(ctx context.Context, sub *circuit.System, task Task, req Request, cache *sparse.Cache, workspaces *krylov.WorkspacePool) transient.Options {
	active := make([]bool, len(sub.Inputs))
	for _, k := range task.InputIdx {
		active[k] = true
	}
	return transient.Options{
		Tstop:        req.Tstop,
		Step:         req.Step,
		Probes:       req.Probes,
		EvalTimes:    req.EvalTimes,
		Tol:          req.Tol,
		Gamma:        req.Gamma,
		MaxDim:       req.MaxDim,
		Ordering:     req.Ordering,
		ActiveInputs: active,
		InitialState: make([]float64, sub.N),
		Cache:        cache,
		Krylov:       req.Krylov,
		Workspaces:   workspaces,
		Ctx:          ctx,
		OnSample:     req.OnSample,
	}
}
