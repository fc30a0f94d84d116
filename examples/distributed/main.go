// Distributed MATEX: decompose a power grid's current sources by their
// pulse "bump" features (paper Fig. 3), run the groups as independent
// zero-state subtasks, and superpose (the paper's Fig. 4 flow end to end):
// first with one node per group, the paper's cluster, in-process; then cut
// for two nodes, in-process and over two worker job servers on the loopback
// interface, to which a coordinating job server posts the tasks.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"strings"

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
	// A remote worker is handed a deck, not a System: write the grid as a
	// netlist, probing two nodes, and run every path below on what it parses
	// to — the system each worker stamps for itself.
	stamped, err := matex.Stamp(ckt, matex.StampOptions{CollapseSupplies: true})
	if err != nil {
		log.Fatal(err)
	}
	names := stamped.NodeNames()
	var text strings.Builder
	if err := matex.WriteNetlist(&text, &matex.Deck{Circuit: ckt, TranStep: 10e-12, TranStop: 10e-9,
		Prints: []string{names[0], names[len(names)/2]}}); err != nil {
		log.Fatal(err)
	}
	deck, err := matex.ParseNetlist(strings.NewReader(text.String()))
	if err != nil {
		log.Fatal(err)
	}
	sys, err := deck.Build()
	if err != nil {
		log.Fatal(err)
	}
	probes, _, _, err := sys.ResolveProbes(deck.Prints)
	if err != nil {
		log.Fatal(err)
	}

	// Show the decomposition: GTS vs per-group LTS.
	gts := sys.GTS(deck.TranStop)
	tasks := dist.Partition(sys, deck.TranStop)
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
	base := matex.Options{Tstop: deck.TranStop, Step: deck.TranStep, Tol: 1e-7, Probes: probes}
	perGroup, rep, err := matex.SimulateDistributed(sys, matex.RMATEX, matex.DistConfig{
		Base: base, Pool: dist.NewLocalPool(len(tasks), nil), Workers: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one node per group: %d groups in %d tasks, slowest node %v (transient %v)\n",
		rep.Groups, rep.Tasks, rep.MaxNodeTime.Round(1e5), perGroup.Stats.TransientTime.Round(1e5))

	// Two nodes: the same groups, merged into two tasks of balanced |∪ LTS|.
	local, rep, err := matex.SimulateDistributed(sys, matex.RMATEX, matex.DistConfig{Base: base, Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("two nodes in-process: %d groups in %d tasks, slowest node %v (transient %v)\n",
		rep.Groups, rep.Tasks, rep.MaxNodeTime.Round(1e5), local.Stats.TransientTime.Round(1e5))
	for i, t := range rep.PerTask {
		fmt.Printf("  task %d: groups %v, %d transition spots\n", i, t.Groups, t.Spots)
	}

	// Two worker job servers on loopback (stand-ins for cluster machines; in
	// a real deployment run `matexd -listen :9090` per machine) and a
	// coordinating one that posts each task of a distributed job to them.
	var addrs []string
	for i := 0; i < 2; i++ {
		addr, stop := serveLoopback(matex.JobServerConfig{})
		defer stop()
		addrs = append(addrs, addr)
	}
	coordinator, stop := serveLoopback(matex.JobServerConfig{DistAddrs: addrs})
	defer stop()
	remote, status := distributedJob(coordinator, text.String())

	fmt.Printf("worker job servers: %d groups in %d tasks over %d workers, retried %d\n",
		status.Groups, status.Tasks, len(addrs), status.Retried)
	fmt.Printf("in-process vs workers, both two nodes: max deviation %.1e V (same plan, identical computation)\n",
		maxDiff(local, remote, len(probes)))
	fmt.Printf("two nodes vs one node per group: max deviation %.1e V (different plans agree to solver tolerance)\n",
		maxDiff(local, perGroup, len(probes)))
}

// serveLoopback starts a job server on a loopback port.
func serveLoopback(cfg matex.JobServerConfig) (addr string, stop func()) {
	s, err := matex.NewJobServer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(l)
	return l.Addr().String(), func() {
		hs.Close()
		s.Shutdown(context.Background())
	}
}

// jobStatus is the part of a job's status this example prints.
type jobStatus struct {
	Groups, Tasks, Retried int
}

// distributedJob runs the deck as a distributed R-MATEX job on the job server
// at addr and returns its streamed rows and its final status.
func distributedJob(addr, netlist string) (*matex.Result, jobStatus) {
	body, err := json.Marshal(matex.JobSpec{Netlist: netlist, Tol: 1e-7, Distributed: true})
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	res := &matex.Result{}
	var id, state, failure string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			ID    string    `json:"id"`
			Seq   int       `json:"seq"`
			T     float64   `json:"t"`
			V     []float64 `json:"v"`
			State string    `json:"state"`
			Error string    `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			log.Fatal(err)
		}
		switch {
		case line.ID != "":
			id = line.ID
		case line.Seq > 0:
			res.Times, res.Probes = append(res.Times, line.T), append(res.Probes, line.V)
		default:
			state, failure = line.State, line.Error
		}
	}
	if state != "done" {
		log.Fatalf("distributed job %s ended %q: %s", id, state, failure)
	}
	sresp, err := http.Get("http://" + addr + "/v1/jobs/" + id)
	if err != nil {
		log.Fatal(err)
	}
	defer sresp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		log.Fatal(err)
	}
	return res, st
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
