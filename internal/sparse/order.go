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
	// Value 2 was reverse Cuthill-McKee, deleted because it won on no
	// committed pattern (EXPERIMENTS.md "Ordering table"). The slot stays
	// reserved: Ordering integers are wire-significant in the dist protocol.
	orderRetiredRCM
	// OrderMinDegree applies a greedy minimum-degree ordering to the
	// pattern of A+Aᵀ using an elimination graph.
	OrderMinDegree
	// OrderND applies recursive nested dissection to the pattern of A+Aᵀ:
	// vertex-separator bisection down to small subgraphs, minimum-degree on
	// the leaves, separators ordered last. Its balanced separator tree
	// bounds fill on 2D meshes, and its separators amalgamate into wide
	// supernodal panels for the blocked factor and solve kernels.
	// (Appended after the earlier values: Ordering integers are
	// wire-significant in the dist protocol.)
	OrderND
)

// Resolve maps OrderDefault to the repository-wide default resolution and
// returns any explicit choice unchanged. The default is OrderND, picked by
// measurement (EXPERIMENTS.md "Ordering table"): on every committed pattern
// its factor is within 1.1–1.3× of MinDegree's — the smallest — at a fifth
// to a tenth of the ordering time, which is what a cold one-shot run pays.
// Cache keys and factorizations use the resolved value so OrderDefault and
// OrderND are interchangeable. The retired value resolves like the default,
// so a peer built before the deletion gets a fill-reducing ordering rather
// than, silently, the natural one.
func (o Ordering) Resolve() Ordering {
	if o == OrderDefault || o == orderRetiredRCM {
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

func newDegreeLists(n int) *degreeLists {
	dl := &degreeLists{head: make([]int, n+1), next: make([]int, n), prev: make([]int, n)}
	for d := range dl.head {
		dl.head[d] = -1
	}
	return dl
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
	return minDegreeAdj(symPattern(a))
}

// minDegreeAdj is MinDegree on an explicit adjacency structure (consumed:
// the lists are rebuilt in place during elimination). Nested dissection
// reuses it on extracted leaf subgraphs.
func minDegreeAdj(adj [][]int) []int {
	n := len(adj)
	deg := make([]int, n)
	dl := newDegreeLists(n)
	for i := range adj {
		deg[i] = len(adj[i])
		dl.insert(i, deg[i])
	}
	stamp := make([]int, n)
	for i := range stamp {
		stamp[i] = -1
	}
	order := make([]int, 0, n)
	var merged []int
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
				if x != v {
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
				dl.remove(w, deg[w])
				deg[w] = len(adj[w])
				dl.insert(w, deg[w])
			} else {
				deg[w] = len(adj[w])
			}
		}
		adj[v] = nil
	}
	return order
}
