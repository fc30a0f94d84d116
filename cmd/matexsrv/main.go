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
// the deck run as one batched computation (shared factorization lineage,
// cross-variant solve panels, collinear-variant sharing) and the job's
// stream interleaves every variant's samples, tagged by variant name and
// per-variant sequence number. POST /sweep (or /v1/sweep) is the
// dedicated endpoint; /v1/jobs accepts sweep specs too.
//
// Usage:
//
//	matexsrv -listen :8080
//	matexsrv -listen :8080 -workers 8 -queue 128 -cache-mb 512
//	matexsrv -listen :8080 -state-dir /var/lib/matex -checkpoint-every 128
//	matexsrv -dist-workers host1:9090,host2:9090   # matexd fan-out
//
// Submit and stream:
//
//	curl -s localhost:8080/v1/simulate -d '{"case":"ibmpg1t","scale":0.25}'
//	curl -s localhost:8080/v1/jobs -d @job.json      # queue, then
//	curl -s localhost:8080/v1/jobs/job-1/stream      # follow live
//	curl -s localhost:8080/sweep -d @sweep.json      # N variants, one run
//	curl -s localhost:8080/stats
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/matex-sim/matex/internal/serve"
	"github.com/matex-sim/matex/internal/sparse"
)

func main() {
	listen := flag.String("listen", ":8080", "HTTP address to listen on")
	workers := flag.Int("workers", 0, "concurrently running jobs (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "queued-job capacity; a full queue answers 429")
	cacheMB := flag.Int("cache-mb", 512, "shared factorization cache budget in MiB (<=0 selects the default)")
	distWorkers := flag.String("dist-workers", "", "comma-separated matexd TCP addresses for distributed jobs (empty = in-process pool)")
	order := flag.String("order", "default", "default fill-reducing ordering for jobs that do not set their own: default (=nd), natural, mindeg, nd")
	grace := flag.Duration("grace", 30*time.Second, "drain budget after SIGINT/SIGTERM before running jobs are canceled")
	stateDir := flag.String("state-dir", "", "durable-job journal directory; jobs survive a crash and resume from their last checkpoint (empty = in-memory only)")
	cpEvery := flag.Int("checkpoint-every", 0, "journaled-checkpoint cadence in accepted integrator steps (0 = default 128; needs -state-dir)")
	flag.Parse()

	ord, err := sparse.ParseOrdering(*order)
	if err != nil {
		log.Fatalf("matexsrv: %v", err)
	}
	cfg := serve.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheBytes:      int64(*cacheMB) << 20,
		Ordering:        ord,
		StateDir:        *stateDir,
		CheckpointEvery: *cpEvery,
	}
	if *distWorkers != "" {
		cfg.DistAddrs = strings.Split(*distWorkers, ",")
	}
	s, err := serve.New(cfg)
	if err != nil {
		log.Fatalf("matexsrv: %v", err)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("matexsrv: %v", err)
	}
	fmt.Printf("matexsrv: listening on %s\n", l.Addr())

	httpSrv := &http.Server{Handler: s.Handler()}
	ctx, stop := serve.SignalContext(context.Background())
	defer stop()
	go func() {
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "matexsrv: draining (signal received)")
		// Flip /readyz to 503 and stop the intake first, so a load balancer
		// health-checking this instance sees it unready for the whole drain
		// window while in-flight streams and jobs finish.
		s.BeginDrain()
		// Stop accepting requests; in-flight streams get the grace budget
		// to finish alongside the job-queue drain below.
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "matexsrv: http shutdown: %v\n", err)
		}
	}()

	err = httpSrv.Serve(l)
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("matexsrv: %v", err)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := s.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "matexsrv: exiting with canceled jobs: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("matexsrv: drained, exiting")
}
