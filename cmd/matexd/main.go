// Command matexd is a MATEX worker: the matexsrv job service under a second
// name (see cmd/matexsrv; both run serve.Main). A D-MATEX coordinator —
// `matex -workers`, or a matexsrv started with -dist-workers — posts each
// task to it as a job: the run's own spec narrowed to the task's sources
// ("inputs"), its deck named by hash ("deck"), and on the first task "dc".
// The worker answers with the task's zero-state rows on the deck's
// transition-spot grid — x_DC added, from its own factor of G, on a "dc"
// task — and its work counters in the stream's tail: the paper's Fig. 4
// node. A worker that does not hold the deck answers 404 and is sent the
// text once (PUT /v1/decks/{hash}). It holds decks in its deck store and
// factorizations in its cache, so repeated tasks on one deck parse and
// factor nothing; a task carries everything it is solved with, its
// fill-reducing ordering included, so a worker has no solver defaults of its
// own. /stats and /readyz are matexsrv's.
//
// SIGINT/SIGTERM drain it like matexsrv: /readyz turns 503, new tasks are
// refused with 503 (the coordinator sends them to its next worker),
// in-flight tasks finish and stream out within -grace, and the process
// exits 0.
//
// Usage:
//
//	matexd -listen :9090
package main

import "github.com/matex-sim/matex/internal/serve"

func main() { serve.Main("matexd") }
