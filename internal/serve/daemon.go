package serve

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

// SignalContext returns a context canceled on SIGINT or SIGTERM — the
// daemon's shutdown trigger (Main). The second signal restores the default
// handler, so a stuck drain can still be killed interactively. Call the
// returned stop function when done.
func SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
}

// Main is the job service daemon, run by cmd/matexsrv and by cmd/matexd (a
// D-MATEX worker is a job server): it reads prog's flags from the command
// line, prints "prog: listening on ADDR" and serves Handler until SIGINT or
// SIGTERM. Then it drains: /readyz flips to 503 and new jobs are refused,
// the listener closes, in-flight streams and queued and running jobs get
// -grace to finish, and the process exits 0 — or 1 when the grace ran out
// and running jobs were canceled.
//
//matex:ctx-root(process lifetime: the signal context is the daemon's root, and the drain budgets start after it fired)
func Main(prog string) {
	fs := flag.NewFlagSet(prog, flag.ExitOnError)
	listen := fs.String("listen", ":8080", "HTTP address to listen on")
	workers := fs.Int("workers", 0, "concurrently running jobs (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 64, "queued-job capacity; a full queue answers 429")
	cacheMB := fs.Int("cache-mb", 512, "shared factorization cache budget in MiB (<=0 selects the default)")
	distWorkers := fs.String("dist-workers", "", "comma-separated host:port of the job servers (matexsrv or matexd) distributed jobs post their tasks to (empty = in-process pool)")
	grace := fs.Duration("grace", 30*time.Second, "drain budget after SIGINT/SIGTERM before running jobs are canceled")
	stateDir := fs.String("state-dir", "", "durable-job journal directory; jobs survive a crash and resume from their last checkpoint (empty = in-memory only)")
	cpEvery := fs.Int("checkpoint-every", 0, "journaled-checkpoint cadence in accepted integrator steps (0 = default 128; needs -state-dir)")
	fs.Parse(os.Args[1:]) //matex:err-ok(flag.ExitOnError: a bad flag exits 2 inside Parse)

	cfg := Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheBytes:      int64(*cacheMB) << 20,
		StateDir:        *stateDir,
		CheckpointEvery: *cpEvery,
	}
	if *distWorkers != "" {
		cfg.DistAddrs = strings.Split(*distWorkers, ",")
	}
	s, err := New(cfg)
	if err != nil {
		log.Fatalf("%s: %v", prog, err)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("%s: %v", prog, err)
	}
	fmt.Printf("%s: listening on %s\n", prog, l.Addr())

	httpSrv := &http.Server{Handler: s.Handler()}
	ctx, stop := SignalContext(context.Background())
	defer stop()
	go func() {
		<-ctx.Done()
		fmt.Fprintf(os.Stderr, "%s: draining (signal received)\n", prog)
		// Flip /readyz to 503 and stop the intake first, so a load balancer
		// or a coordinator health-checking this instance sees it unready for
		// the whole drain window while in-flight streams and jobs finish.
		s.BeginDrain()
		// Stop accepting requests; in-flight streams get the grace budget
		// to finish alongside the job-queue drain below.
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "%s: http shutdown: %v\n", prog, err)
		}
	}()

	err = httpSrv.Serve(l)
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("%s: %v", prog, err)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := s.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "%s: exiting with canceled jobs: %v\n", prog, err)
		os.Exit(1)
	}
	fmt.Printf("%s: drained, exiting\n", prog)
}
