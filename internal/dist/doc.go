// Package dist implements the distributed MATEX framework of the paper
// (Fig. 4): the transient simulation of a power distribution network is
// decomposed by the "bump features" of its input current sources (Fig. 3),
// the source groups are simulated as independent zero-state subtasks on the
// computing nodes, and the responses are superposed with the DC operating
// point to recover the full solution.
//
// The decomposition is exact for the linear MNA system C·x' = -G·x + B·u(t):
// with x_DC the DC operating point (G·x_DC = B·u(0)),
//
//	x(t) = x_DC + Σ_g x_g(t),
//
// where x_g is the zero-state response to the zero-based group input
// u_g(t) - u_g(0). Sources sharing a bump feature transition at the same
// local spots (LTS), so one node simulates them together at no extra Krylov
// subspace generations; every node emits snapshots on the shared global
// transition spot (GTS) grid by substitution-free subspace reuse, and the
// scheduler sums them.
//
// A node pays one Krylov subspace — m substitution pairs — per transition
// spot of the sources it holds (the paper's Eqs. 11–12), so one machine per
// group makes every node cheap. With fewer machines than groups, one task
// per group would make each machine re-pay the spots its groups share, so
// the planner (plan.go) merges the groups into exactly min(groups, nodes)
// tasks: groups ordered by first transition, cut into contiguous runs that
// minimise the largest per-task |∪ LTS|. The node count is the pool's
// (Pool.Nodes): the job servers named, Config.Workers or GOMAXPROCS
// in-process. With nodes ≥ groups the plan is Partition's output. Equal
// node counts give equal plans and bit-identical results; different node
// counts agree to solver tolerance.
//
// Run (run.go) is a planner plus a runner: Partition extracts bump features
// (dist.go), the planner cuts Tasks for the pool's nodes, and the lane
// executor this package shares with internal/sweep (superpose.Run) runs
// each task through Pool.Solve and folds the responses, (x_DC + x_0) +
// Σ 1·x_task, row by row as the tasks pass each GTS point.
// The scheduler solves nothing itself: task 0 carries the DC point
// (Task.DC) — its node solves G·x_DC = B·u(0) from the factorization of G
// its own integration uses and answers x_DC + x_0, summed in the order the
// fold sums every later task — so row 0, x_DC, leaves with task 0's first
// row, and every task, in-process or remote, streams its rows into the fold
// as they leave it (Request.Options.OnSample). SolveTask delivers every
// task on the GTS grid, a fixed-step one interpolated onto it on the node.
// The method is an argument and the solver options are one
// transient.Options (Config.Base), as for transient.Simulate, whose OnSample
// receives the superposed rows. The circuit is an argument too: Run and
// Pool.Solve take a System (the stamped system and its zero-state view), so
// a pool is nodes and nothing else and one pool serves any number of
// circuits. This package ships the in-process goroutine pool (pool.go; the
// default, or NewLocalPool with an explicit node count). Workers share the
// factorization cache of their process, so co-located subtasks against one
// grid factor once.
//
// Report carries the plan, per-node wall times and work counters, feeding
// the speedup tables in EXPERIMENTS.md.
//
// Wire: there is none here. A remote task is a job: internal/job posts the
// run's own spec, narrowed to the task's inputs (job.Spec.Inputs, and
// "dc" on task 0) and naming its deck by the SHA-256 of its text, to a job
// server's POST /v1/simulate — cmd/matexsrv, also built as cmd/matexd —
// which answers with the task's NDJSON rows and its work counters in the
// stream's tail, exactly what SolveTask returns in-process. A worker that
// does not hold the deck answers 404 and is sent the text once (PUT
// /v1/decks/{hash}); a warm worker is sent a spec of a few hundred bytes and
// parses nothing. A task whose worker dies, drains or is full is posted
// again to the next worker, whose rows up to those already delivered are
// compared bit for bit instead of delivered twice; a solver error is not
// re-sent; a canceled run cancels its tasks' jobs.
package dist
