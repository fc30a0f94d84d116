// Command matexsrv is the MATEX simulation job service: a long-running
// HTTP daemon that accepts netlist-deck jobs, runs them through a bounded
// worker-pool queue over the shared factorization cache, and streams
// waveform samples incrementally as NDJSON (or SSE) while the integrators
// advance. SIGINT/SIGTERM drain gracefully: the listener closes, /readyz
// flips to 503, queued and running jobs finish (bounded by -grace), then
// the process exits 0. With -state-dir set, accepted jobs survive a crash:
// specs, periodic integrator checkpoints and results are journaled, and a
// restart on the same directory resumes interrupted jobs from their last
// checkpoint instead of step zero.
//
// A job spec with a "variants" list is a scenario sweep: all variants of
// the deck run as one computation (shared factorization lineage, parallel
// lanes, collinear-variant sharing) and the job's
// stream interleaves every variant's samples, tagged by variant name and
// per-variant sequence number. POST /sweep (or /v1/sweep) is the
// dedicated endpoint; /v1/jobs accepts sweep specs too.
//
// A spec is resolved and run by internal/job, the code behind the matex CLI:
// the same defaults, the same refusals. Solver options — the fill-reducing
// ordering among them — come from each job's spec alone; the daemon's flags
// size the service, never the solve.
//
// A distributed job ("distributed": true) runs in-process, or with
// -dist-workers over other job servers (matexsrv, or the same program built
// as cmd/matexd): each task is posted to one as a job of its own, a spec
// whose "inputs" name the task's sources and whose "deck" names the deck by
// hash (a worker that does not hold it is sent the text once, PUT
// /v1/decks/{hash}), and its rows are read back from that job's stream.
// Canceling the job cancels its tasks' jobs. A client posting many jobs on
// one deck can do the same: PUT it once, then name it by "deck".
//
// Usage:
//
//	matexsrv -listen :8080
//	matexsrv -listen :8080 -workers 8 -queue 128 -cache-mb 512
//	matexsrv -listen :8080 -state-dir /var/lib/matex -checkpoint-every 128
//	matexsrv -dist-workers host1:9090,host2:9090   # D-MATEX over two workers
//
// Submit and stream:
//
//	curl -s localhost:8080/v1/simulate -d '{"case":"ibmpg1t","scale":0.25}'
//	curl -s localhost:8080/v1/jobs -d @job.json      # queue, then
//	curl -s localhost:8080/v1/jobs/job-1/stream      # follow live
//	curl -s localhost:8080/sweep -d @sweep.json      # N variants, one run
//	curl -s localhost:8080/stats
package main

import "github.com/matex-sim/matex/internal/serve"

func main() { serve.Main("matexsrv") }
