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
// (Pool.Nodes): live workers over RPC, Config.Workers or GOMAXPROCS
// in-process. With nodes ≥ groups the plan is Partition's output. Equal
// node counts give equal plans and bit-identical results; different node
// counts agree to solver tolerance.
//
// Run (run.go) drives the whole flow: Partition extracts bump features
// (dist.go), the planner cuts Tasks for the pool's nodes, and the lane
// fan-out and the streaming fold this package shares with internal/sweep
// (internal/superpose) place them on the Pool — while Run solves the DC
// point itself — and fold the responses, x_DC + Σ 1·x_task, row by row as
// the tasks pass each GTS point: row 0 is x_DC, in-process tasks stream
// their samples into the fold (Request.Options.OnSample), remote ones land
// whole. The method is an argument and the solver options are one
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
// run's own spec, narrowed to the task's inputs (job.Spec.Inputs) and with
// its deck inline, to a job server's POST /v1/simulate — cmd/matexsrv, also
// built as cmd/matexd — which answers with the task's NDJSON rows and its
// work counters in the stream's tail, exactly what SolveTask returns
// in-process. The worker holds the deck in its deck store by the SHA-256 of
// its text, so a warm worker parses nothing. A task whose worker dies, drains
// or is full is re-sent whole to the next worker; a solver error is not
// re-sent; a canceled run cancels its tasks' jobs.
package dist
