// Command matexd is a MATEX worker daemon: it listens on TCP for subtasks
// from a scheduler (cmd/matex -workers, dist.NewRPCPool, or a matexsrv
// instance with -dist-workers) and runs each with the requested circuit
// solver. It holds the circuits it has been sent, least recently used ones
// dropped past 1 GiB of encoded circuit; a task on a circuit it does not
// hold — it is new, was restarted, or dropped it — is answered "unknown
// system", and the scheduler sends the circuit and the task again. Workers
// share nothing and only write results back — the paper's Fig. 4 node.
//
// SIGINT/SIGTERM drain gracefully: the listener closes, in-flight RPCs
// finish and answer over their still-open connections (bounded by -grace),
// new calls are refused with a draining error the scheduler retries on
// other workers, and the process exits 0.
//
// Usage:
//
//	matexd -listen :9090
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"

	"github.com/matex-sim/matex/internal/dist"
	"github.com/matex-sim/matex/internal/serve"
	"github.com/matex-sim/matex/internal/sparse"
)

func main() {
	listen := flag.String("listen", ":9090", "TCP address to listen on")
	cacheMB := flag.Int("cache-mb", 0, "factorization cache budget in MiB; <=0 selects the 512 MiB default (the worker cache is always on — it replaces per-subtask refactorization)")
	order := flag.String("order", "default", "default fill-reducing ordering for requests that do not set their own: default (=nd), natural, mindeg, nd")
	grace := flag.Duration("grace", dist.DefaultDrainGrace, "drain budget for in-flight RPCs after SIGINT/SIGTERM")
	flag.Parse()

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("matexd: %v", err)
	}
	fmt.Printf("matexd: listening on %s\n", l.Addr())
	ord, err := sparse.ParseOrdering(*order)
	if err != nil {
		log.Fatalf("matexd: %v", err)
	}
	ws := dist.NewWorkerServer(sparse.NewCache(int64(*cacheMB) << 20))
	ws.SetOrdering(ord)

	// The same signal-driven shutdown path as cmd/matexsrv: first signal
	// starts the drain, a second one kills the process the default way.
	ctx, stop := serve.SignalContext(context.Background())
	defer stop()
	if err := dist.ServeContext(ctx, l, ws, *grace); err != nil {
		log.Fatalf("matexd: %v", err)
	}
	if ctx.Err() != nil {
		fmt.Println("matexd: drained, exiting")
	}
}
