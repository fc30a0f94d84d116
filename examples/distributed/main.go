// Distributed MATEX: decompose a power grid's current sources by their
// pulse "bump" features (paper Fig. 3), run the groups as independent
// zero-state subtasks, and superpose (the paper's Fig. 4 flow end to end):
// first with one node per group, the paper's cluster, in-process; then cut
// for two nodes, in-process and over two TCP workers on the loopback
// interface.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"net"

	matex "github.com/matex-sim/matex"
	"github.com/matex-sim/matex/internal/dist"
)

func main() {
	spec, err := matex.IBMCase("ibmpg1t", 0.5)
	if err != nil {
		log.Fatal(err)
	}
	ckt, err := spec.Build()
	if err != nil {
		log.Fatal(err)
	}
	sys, err := matex.Stamp(ckt, matex.StampOptions{CollapseSupplies: true})
	if err != nil {
		log.Fatal(err)
	}
	probes := []int{0, sys.NumNodes / 2}

	// Show the decomposition: GTS vs per-group LTS.
	gts := sys.GTS(10e-9)
	tasks := dist.Partition(sys, 10e-9)
	fmt.Printf("global transition spots (GTS): %d points\n", len(gts))
	fmt.Printf("source groups (bump features): %d\n", len(tasks))
	for _, task := range tasks[:min(4, len(tasks))] {
		fmt.Printf("  group %d: %d sources\n", task.GroupID, len(task.InputIdx))
	}
	if len(tasks) > 4 {
		fmt.Printf("  ... and %d more groups\n", len(tasks)-4)
	}

	// The paper's reading: a pool that stands in for one machine per group,
	// their tasks run one at a time so each is timed contention-free.
	base := matex.Options{Tstop: 10e-9, Tol: 1e-7, Probes: probes}
	perGroup, rep, err := matex.SimulateDistributed(sys, matex.RMATEX, matex.DistConfig{
		Base: base, Pool: dist.NewLocalPool(len(tasks), nil), Workers: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one node per group: %d groups in %d tasks, slowest node %v (transient %v)\n",
		rep.Groups, rep.Tasks, rep.MaxNodeTime.Round(1e5), rep.MaxNodeTrTime.Round(1e5))

	// Two nodes: the same groups, merged into two tasks of balanced |∪ LTS|.
	local, rep, err := matex.SimulateDistributed(sys, matex.RMATEX, matex.DistConfig{Base: base, Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("two nodes in-process: %d groups in %d tasks, slowest node %v (transient %v)\n",
		rep.Groups, rep.Tasks, rep.MaxNodeTime.Round(1e5), rep.MaxNodeTrTime.Round(1e5))
	for i, t := range rep.PerTask {
		fmt.Printf("  task %d: groups %v, %d transition spots\n", i, t.Groups, t.Spots)
	}

	// Two TCP workers on loopback (stand-ins for cluster machines; in a real
	// deployment run `matexd -listen :9090` per machine).
	ctx, stopWorkers := context.WithCancel(context.Background())
	defer stopWorkers()
	var addrs []string
	for i := 0; i < 2; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go dist.ServeContext(ctx, l, matex.NewWorkerServer(nil))
		addrs = append(addrs, l.Addr().String())
	}
	pool, err := matex.NewRPCPool(ctx, addrs)
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()
	remote, rep2, err := matex.SimulateDistributed(sys, matex.RMATEX, matex.DistConfig{Base: base, Pool: pool})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("TCP workers: %d groups in %d tasks over %d workers, retried %d\n",
		rep2.Groups, rep2.Tasks, len(addrs), rep2.Retried)
	fmt.Printf("in-process vs TCP, both two nodes: max deviation %.1e V (same plan, identical computation)\n",
		maxDiff(local, remote, len(probes)))
	fmt.Printf("two nodes vs one node per group: max deviation %.1e V (different plans agree to solver tolerance)\n",
		maxDiff(local, perGroup, len(probes)))
}

// maxDiff is the largest probe deviation between two runs on the same grid.
func maxDiff(a, b *matex.Result, nProbes int) float64 {
	var d float64
	for i := range a.Times {
		for k := 0; k < nProbes; k++ {
			d = math.Max(d, math.Abs(a.Probes[i][k]-b.Probes[i][k]))
		}
	}
	return d
}
