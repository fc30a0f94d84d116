package sparse

import (
	"fmt"
	"strings"
)

// ParseOrdering resolves an ordering name ("default", "natural", "mindeg",
// "nd"; case-insensitive) — the spelling shared by the matex CLI
// flags and the serve job API. The empty string selects OrderDefault.
func ParseOrdering(name string) (Ordering, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "default":
		return OrderDefault, nil
	case "natural":
		return OrderNatural, nil
	case "mindeg", "mindegree", "min-degree":
		return OrderMinDegree, nil
	case "nd", "nested", "nested-dissection", "nesteddissection":
		return OrderND, nil
	}
	return 0, fmt.Errorf("sparse: unknown ordering %q", name)
}

// Ordering selects a fill-reducing ordering strategy for factorization.
type Ordering int

const (
	// OrderDefault is the zero value: "no preference", resolved to OrderND
	// wherever an ordering is actually applied (see Resolve). Keeping the
	// default distinct from OrderNatural lets callers genuinely request
	// natural ordering.
	OrderDefault Ordering = iota
	// OrderNatural keeps the input order.
	OrderNatural
	// OrderMinDegree applies a greedy minimum-degree ordering to the
	// pattern of A+Aᵀ using an elimination graph.
	OrderMinDegree
	// OrderND applies recursive nested dissection to the pattern of A+Aᵀ:
	// vertex-separator bisection down to small subgraphs, minimum-degree on
	// the leaves, separators ordered last. Its balanced separator tree
	// bounds fill on 2D meshes, and its separators amalgamate into wide
	// supernodal panels for the blocked factor and solve kernels.
	OrderND
)

// Resolve maps OrderDefault to the repository-wide default resolution and
// returns any explicit choice unchanged. The default is OrderND, picked by
// measurement (EXPERIMENTS.md "Ordering table"): on every committed pattern
// its factor is within 1.1–1.3× of MinDegree's — the smallest — at a fifth
// to a tenth of the ordering time, which is what a cold one-shot run pays.
// Cache keys and factorizations use the resolved value so OrderDefault and
// OrderND are interchangeable.
func (o Ordering) Resolve() Ordering {
	if o == OrderDefault {
		return OrderND
	}
	return o
}

func (o Ordering) String() string {
	switch o {
	case OrderDefault:
		return "default"
	case OrderNatural:
		return "natural"
	case OrderMinDegree:
		return "mindeg"
	case OrderND:
		return "nd"
	}
	return "unknown"
}

// Order computes a permutation p for matrix a under the chosen strategy.
// Column/row k of the permuted matrix is p[k] of the original. OrderDefault
// resolves to OrderND.
func Order(a *CSC, o Ordering) []int {
	switch o.Resolve() {
	case OrderMinDegree:
		return MinDegree(a)
	case OrderND:
		return NestedDissection(a)
	default:
		p := make([]int, a.Cols)
		for i := range p {
			p[i] = i
		}
		return p
	}
}

// degreeLists is a bucket structure over node degrees: doubly linked lists
// threaded through next/prev arrays, one list head per degree. Minimum
// selection walks the bucket array upward from a cursor that only moves
// down on insertions below it — amortized O(1) per operation instead of the
// O(n) min-scan of the textbook algorithm.
type degreeLists struct {
	head       []int // head[d] = first node of degree d, or -1
	next, prev []int
	cursor     int // no nonempty bucket below this degree
}

// reset empties the lists for nodes 0..n-1, reusing their storage.
func (dl *degreeLists) reset(n int) {
	dl.head, dl.next, dl.prev = grow(dl.head, n+1), grow(dl.next, n), grow(dl.prev, n)
	for d := range dl.head {
		dl.head[d] = -1
	}
	dl.cursor = 0
}

func (dl *degreeLists) insert(v, d int) {
	h := dl.head[d]
	dl.next[v] = h
	dl.prev[v] = -1
	if h != -1 {
		dl.prev[h] = v
	}
	dl.head[d] = v
	if d < dl.cursor {
		dl.cursor = d
	}
}

func (dl *degreeLists) remove(v, d int) {
	if dl.prev[v] != -1 {
		dl.next[dl.prev[v]] = dl.next[v]
	} else {
		dl.head[d] = dl.next[v]
	}
	if dl.next[v] != -1 {
		dl.prev[dl.next[v]] = dl.prev[v]
	}
}

// popMin removes and returns a node of minimum degree (-1 when empty).
func (dl *degreeLists) popMin() int {
	for dl.cursor < len(dl.head) {
		if v := dl.head[dl.cursor]; v != -1 {
			dl.remove(v, dl.cursor)
			return v
		}
		dl.cursor++
	}
	return -1
}

// MinDegree returns a greedy minimum-degree ordering of the pattern of a+aᵀ.
// It maintains an explicit elimination graph — eliminating node v connects
// all of v's remaining neighbors into a clique — with bucketed degree lists
// for O(1) minimum selection and slice-based adjacency merged through a
// stamp array (no per-node hash maps). Still the greedy elimination-graph
// algorithm rather than AMD, but without its quadratic bookkeeping.
func MinDegree(a *CSC) []int {
	var md minDegree
	return md.order(symPattern(a))
}

// minDegree is the scratch of minimum-degree orderings, kept across calls:
// nested dissection orders every leaf through one.
type minDegree struct {
	adj    [][]int32
	deg    []int
	dl     degreeLists
	stamp  []int
	out    []int
	merged []int32
}

// order returns a minimum-degree ordering of g (consumed: each node's list
// is rebuilt in place in its slab region, or moved off it when it grows).
// The result is the scratch's; it is valid until the next call.
func (md *minDegree) order(g adjacency) []int {
	n := len(g.ptr) - 1
	adj := grow(md.adj, n)
	deg := grow(md.deg, n)
	stamp := grow(md.stamp, n)
	md.dl.reset(n)
	dl := &md.dl
	for i := range adj {
		lo, hi := g.ptr[i], g.ptr[i+1]
		adj[i] = g.idx[lo:hi:hi]
		deg[i] = int(hi - lo)
		dl.insert(i, deg[i])
		stamp[i] = -1
	}
	order := md.out[:0]
	merged := md.merged
	for {
		v := dl.popMin()
		if v == -1 {
			break
		}
		order = append(order, v)
		nbrs := adj[v]
		// Rebuild each neighbor's list as (old ∖ {v}) ∪ (nbrs ∖ {w}),
		// deduplicated with the stamp array. Lists hold live nodes only
		// (every elimination rebuilds exactly its neighbors), so degrees
		// stay exact.
		for _, w := range nbrs {
			stamp[w] = v
		}
		for _, w := range nbrs {
			merged = merged[:0]
			for _, x := range adj[w] {
				if int(x) != v {
					merged = append(merged, x)
				}
			}
			// Stamp the survivors so clique edges are not duplicated.
			token := n + v + 1 // distinct from the nbrs stamp value v
			for _, x := range merged {
				if stamp[x] == v {
					stamp[x] = token
				}
			}
			for _, x := range nbrs {
				if x != w && stamp[x] == v {
					merged = append(merged, x)
				}
			}
			// Restore the nbrs stamp for the next neighbor's merge.
			for _, x := range merged {
				if stamp[x] == token {
					stamp[x] = v
				}
			}
			old := len(adj[w])
			adj[w] = append(adj[w][:0], merged...)
			if len(adj[w]) != old {
				dl.remove(int(w), deg[w])
				deg[w] = len(adj[w])
				dl.insert(int(w), deg[w])
			} else {
				deg[w] = len(adj[w])
			}
		}
		adj[v] = nil
	}
	md.adj, md.deg, md.stamp, md.out, md.merged = adj, deg, stamp, order, merged
	return order
}

// grow returns s resliced to length n, reallocated when too short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
