package sparse

import (
	"math/rand"
	"testing"
)

func TestNDIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	for _, n := range []int{1, 2, 7, 40, 150} {
		a := randomSparse(rng, n, 0.1)
		p := NestedDissection(a)
		if err := CheckPerm(p, n); err != nil {
			t.Fatalf("ND on n=%d: %v", n, err)
		}
	}
	// Disconnected graph: two meshes with no coupling.
	a := blockDiagCSC(meshSPD(9, 9), meshSPD(9, 9))
	if err := CheckPerm(NestedDissection(a), a.Rows); err != nil {
		t.Fatalf("ND on a disconnected graph: %v", err)
	}
}

// blockDiagCSC builds diag(blocks...) for ND/schedule tests.
func blockDiagCSC(blocks ...*CSC) *CSC {
	n := 0
	for _, b := range blocks {
		n += b.Rows
	}
	tr := NewTriplet(n, n)
	off := 0
	for _, bl := range blocks {
		for j := 0; j < bl.Cols; j++ {
			for p := bl.Colptr[j]; p < bl.Colptr[j+1]; p++ {
				tr.Add(off+bl.Rowidx[p], off+j, bl.Values[p])
			}
		}
		off += bl.Rows
	}
	return tr.ToCSC()
}

// The separator returned by one bisection step must be a valid vertex
// separator: {A, B, S} partitions the component, both halves are nontrivial
// and roughly balanced, and no edge connects A to B directly.
func TestNDSeparatorProperties(t *testing.T) {
	mesh := meshSPD(24, 24)
	n := mesh.Rows
	nd := newNDState(mesh)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = i
	}
	a, b, sep, ok := nd.split(comp)
	if !ok {
		t.Fatal("split failed on a connected 24x24 mesh")
	}
	// Valid partition.
	seen := make([]int, n)
	for _, v := range a {
		seen[v]++
	}
	for _, v := range b {
		seen[v]++
	}
	for _, v := range sep {
		seen[v]++
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("node %d appears %d times across {A,B,S}", v, c)
		}
	}
	// Balanced halves: on a uniform mesh the level cut lands near the
	// middle; require both halves above a quarter of the nodes.
	if len(a)*4 < n || len(b)*4 < n {
		t.Fatalf("unbalanced split: |A|=%d |B|=%d |S|=%d of %d", len(a), len(b), len(sep), n)
	}
	// A separator on a √n mesh should be O(√n), not a constant fraction.
	if len(sep) > n/4 {
		t.Fatalf("separator too large: %d of %d", len(sep), n)
	}
	// The separator separates: no A–B edge.
	side := make([]int8, n)
	for _, v := range a {
		side[v] = 1
	}
	for _, v := range b {
		side[v] = 2
	}
	for _, v := range a {
		for _, w := range nd.adj.nbrs(v) {
			if side[w] == 2 {
				t.Fatalf("edge %d–%d crosses the separator", v, w)
			}
		}
	}
}

// ND must bound fill on the paper's dominant topology: no worse than a
// small multiple of MinDegree on a 2D mesh, far below natural order.
func TestNDFillOnMesh(t *testing.T) {
	a := meshSPD(30, 30)
	lnz := func(o Ordering) int {
		sym, err := AnalyzeLDLT(a, o)
		if err != nil {
			t.Fatal(err)
		}
		return sym.LNZ()
	}
	nat, md, nd := lnz(OrderNatural), lnz(OrderMinDegree), lnz(OrderND)
	if nd >= nat {
		t.Fatalf("ND fill %d not below natural fill %d", nd, nat)
	}
	if nd > 2*md {
		t.Fatalf("ND fill %d more than 2x MinDegree fill %d", nd, md)
	}
	t.Logf("30x30 mesh lnz: natural=%d mindeg=%d nd=%d", nat, md, nd)
}

// ndPermFingerprint fingerprints a permutation with FNV-1a.
func ndPermFingerprint(p []int) uint64 {
	h := uint64(fnvOffset)
	for _, v := range p {
		h = fnvMix(h, uint64(v))
	}
	return h
}

// The nested-dissection permutation of every pattern below is pinned: its
// scratch handling may change, the order it returns may not. The values
// were taken before the recursion kept its queue and level sizes on
// ndState.
func TestNDPermutationsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	cases := []struct {
		name string
		a    *CSC
		want uint64
	}{
		{"mesh 24x24", meshSPD(24, 24), 0x4e3bf424abb29845},
		{"mesh 60x40", meshSPD(60, 40), 0x4b6ca7483910372d},
		{"mesh 131x97", meshSPD(131, 97), 0xfbaa1fc7b93dd561},
		{"two meshes", blockDiagCSC(meshSPD(9, 9), meshSPD(9, 9)), 0x8aed308c71624044},
		{"four domains", multiDomainSPD(20, 4), 0x10f98e0757189c61},
		{"random 150", randomSparse(rng, 150, 0.05), 0x1cc4740cf471f304},
		{"random 600", randomSparse(rng, 600, 0.01), 0x116ff740c2dbdae5},
		{"random 2000", randomSparse(rng, 2000, 0.002), 0x6a47fbc697db0081},
	}
	for _, c := range cases {
		if got := ndPermFingerprint(NestedDissection(c.a)); got != c.want {
			t.Errorf("%s: ND permutation fingerprint %#x, want %#x", c.name, got, c.want)
		}
	}
}
