package sparse

import "sync"

// PanelBroker batches triangular solves issued by concurrent simulation
// lanes into multi-RHS panels, the cross-job analogue of request batching
// in an inference serving stack. Each participant joins the broker as a
// lane and wraps its factorizations with PanelLane.Wrap; every Solve /
// SolveWith / SolveMulti on a wrapped factorization then parks in the
// broker until all currently active lanes have a solve pending (a phaser
// barrier), at which point the whole round executes at once: requests
// against the same underlying factorization become one SolveMulti panel
// (k interleaved right-hand sides per factor traversal, the PR 4 blocked
// kernel), stragglers execute solo.
//
// The scheme is deadlock-free by construction: a lane is, at every
// moment, either computing (and will eventually submit another solve) or
// done (and must Leave, which shrinks the barrier). Lanes whose adaptive
// step grids diverge from the rest still batch — rounds are formed from
// concurrent pendency, not from matching simulation times — and a lane
// that finishes early or fails simply leaves, narrowing subsequent
// panels instead of stalling them. A broker with a single active lane
// degenerates to pass-through solves.
type PanelBroker struct {
	mu      sync.Mutex
	cond    *sync.Cond
	lanes   int         // joined and not yet left
	waiting int         // lanes with a submitted, unexecuted request
	pending []*panelReq // requests queued for the current round
	stats   PanelStats
}

// PanelStats reports the batching achieved by a PanelBroker.
type PanelStats struct {
	// Rounds counts barrier rounds executed.
	Rounds int
	// Solves counts individual right-hand sides routed through the broker.
	Solves int
	// Batched counts right-hand sides that executed inside a multi-RHS
	// panel of width >= 2 (the rest ran solo).
	Batched int
	// Widths histograms panel executions by width: Widths[k] panels ran
	// with k right-hand sides against one factorization.
	Widths map[int]int
}

// MeanWidth returns the average panel width (right-hand sides per factor
// traversal); 0 when nothing was routed through the broker.
func (s PanelStats) MeanWidth() float64 {
	n, sum := 0, 0
	for w, c := range s.Widths {
		n += c
		sum += w * c
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

type panelReq struct {
	lane *PanelLane
	fact Factorization // underlying (unwrapped) factorization
	dst  []float64
	b    []float64
	done bool
}

// NewPanelBroker returns an empty broker; lanes are added with Join.
func NewPanelBroker() *PanelBroker {
	br := &PanelBroker{}
	br.cond = sync.NewCond(&br.mu)
	return br
}

// Join registers a new lane. Every joined lane must eventually call
// Leave — typically deferred right after Join — or the remaining lanes'
// barrier never fills.
func (br *PanelBroker) Join() *PanelLane {
	br.mu.Lock()
	br.lanes++
	br.mu.Unlock()
	return &PanelLane{br: br}
}

// Stats snapshots the batching counters.
func (br *PanelBroker) Stats() PanelStats {
	br.mu.Lock()
	defer br.mu.Unlock()
	out := br.stats
	out.Widths = make(map[int]int, len(br.stats.Widths))
	for w, c := range br.stats.Widths {
		out.Widths[w] = c
	}
	return out
}

// PanelLane is one participant's handle on a PanelBroker.
type PanelLane struct {
	br   *PanelBroker
	left bool
}

// Wrap returns a Factorization whose solves are routed through the
// broker. The wrapper implements MultiSolver (a k-RHS call contributes k
// rows to the round's panels). Wrapping the same factorization twice
// yields distinct wrappers that still batch together — panels group by the
// underlying factorization's identity.
func (ln *PanelLane) Wrap(f Factorization) Factorization {
	if inner, ok := f.(*panelFact); ok {
		f = inner.fact
	}
	return &panelFact{lane: ln, fact: f}
}

// Leave withdraws the lane from the barrier; pending requests from other
// lanes no longer wait for it. Leave is idempotent.
func (ln *PanelLane) Leave() {
	br := ln.br
	br.mu.Lock()
	defer br.mu.Unlock()
	if ln.left {
		return
	}
	ln.left = true
	br.lanes--
	if br.waiting > 0 && br.waiting == br.lanes {
		br.runRound()
	}
}

// solve submits one lane's requests (one per RHS) and blocks until a
// round has executed them.
func (ln *PanelLane) solve(reqs []*panelReq) {
	br := ln.br
	br.mu.Lock()
	defer br.mu.Unlock()
	if ln.left {
		// A left lane keeps working: execute immediately, outside the
		// barrier, so stray solves after Leave cannot deadlock.
		execGroup(reqs, &br.stats)
		return
	}
	br.pending = append(br.pending, reqs...)
	br.waiting++
	if br.waiting == br.lanes {
		br.runRound()
	}
	for !reqsDone(reqs) {
		br.cond.Wait()
	}
}

func reqsDone(reqs []*panelReq) bool {
	for _, r := range reqs {
		if !r.done {
			return false
		}
	}
	return true
}

// runRound executes every pending request, grouped by underlying
// factorization, and wakes the waiting lanes. Called with br.mu held; the
// solves run under the lock, which is safe (and contention-free) because
// every lane with work in flight is parked in cond.Wait.
func (br *PanelBroker) runRound() {
	batch := br.pending
	br.pending = nil
	br.waiting = 0
	br.stats.Rounds++
	// Group by underlying factorization identity, preserving first-seen
	// order: lanes submit in scheduler order, so same-phase requests
	// against one factor may interleave with a straggler's other factor.
	var order []Factorization
	groups := make(map[Factorization][]*panelReq, 2)
	for _, r := range batch {
		if _, ok := groups[r.fact]; !ok {
			order = append(order, r.fact)
		}
		groups[r.fact] = append(groups[r.fact], r)
	}
	for _, f := range order {
		execGroup(groups[f], &br.stats)
	}
	br.cond.Broadcast()
}

// execGroup runs one same-factorization group, as a multi-RHS panel when
// the factorization supports it and the group has width >= 2.
func execGroup(reqs []*panelReq, stats *PanelStats) {
	stats.Solves += len(reqs)
	if stats.Widths == nil {
		stats.Widths = make(map[int]int)
	}
	stats.Widths[len(reqs)]++
	if len(reqs) >= 2 {
		if ms, ok := reqs[0].fact.(MultiSolver); ok {
			dst := make([][]float64, len(reqs))
			b := make([][]float64, len(reqs))
			for i, r := range reqs {
				dst[i], b[i] = r.dst, r.b
			}
			ms.SolveMulti(dst, b)
			stats.Batched += len(reqs)
			for _, r := range reqs {
				r.done = true
			}
			return
		}
	}
	for _, r := range reqs {
		r.fact.Solve(r.dst, r.b)
		r.done = true
	}
}

// panelFact routes a factorization's solves through the lane's broker.
type panelFact struct {
	lane *PanelLane
	fact Factorization
}

func (p *panelFact) N() int   { return p.fact.N() }
func (p *panelFact) NNZ() int { return p.fact.NNZ() }

func (p *panelFact) Solve(dst, b []float64) {
	p.lane.solve([]*panelReq{{lane: p.lane, fact: p.fact, dst: dst, b: b}})
}

// SolveWith joins the current panel round; the scratch buffer is unused
// because the executing kernel provisions its own interleaved workspace.
func (p *panelFact) SolveWith(dst, b, work []float64) {
	p.Solve(dst, b)
}

// SolveMulti contributes all k right-hand sides to one round, so a
// within-lane panel and the cross-lane batching compose.
func (p *panelFact) SolveMulti(dst, b [][]float64) {
	if len(dst) != len(b) {
		panic("sparse: SolveMulti dst/b length mismatch")
	}
	if len(dst) == 0 {
		return
	}
	reqs := make([]*panelReq, len(dst))
	for i := range dst {
		reqs[i] = &panelReq{lane: p.lane, fact: p.fact, dst: dst[i], b: b[i]}
	}
	p.lane.solve(reqs)
}
