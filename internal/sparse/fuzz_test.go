package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// fuzzMatrix decodes a byte stream into an n×n matrix: each 3-byte chunk
// stamps one entry (row, column, value). The triplet path itself is under
// test, so the result is validated before use.
func fuzzMatrix(t *testing.T, n int, entries []byte) *CSC {
	tb := NewTriplet(n, n)
	for k := 0; k+2 < len(entries); k += 3 {
		i := int(entries[k]) % n
		j := int(entries[k+1]) % n
		v := float64(int(entries[k+2]) - 128)
		tb.Add(i, j, v)
	}
	m := tb.ToCSC()
	if err := CheckCSC(m); err != nil {
		t.Fatalf("ToCSC broke the CSC invariants: %v", err)
	}
	return m
}

// FuzzCSCOps checks that the core pattern operations are closed under the
// CSC invariants (sorted, duplicate-free, in-range row indices) for
// arbitrary stamping sequences.
func FuzzCSCOps(f *testing.F) {
	f.Add(uint8(4), uint8(1), []byte{0, 0, 10, 1, 1, 200, 0, 1, 3}, 1.0, 1.0)
	f.Add(uint8(1), uint8(0), []byte{}, 0.0, 0.0)
	f.Add(uint8(7), uint8(3), []byte{6, 6, 1, 6, 0, 2, 0, 6, 2, 3, 3, 9}, 2.5, -0.5)
	f.Fuzz(func(t *testing.T, dim, rot uint8, entries []byte, alpha, beta float64) {
		n := int(dim)%8 + 1
		a := fuzzMatrix(t, n, entries)

		// Split the stream so the two operands differ.
		b := fuzzMatrix(t, n, entries[len(entries)/2:])

		sum := Add(alpha, a, beta, b)
		if err := CheckCSC(sum); err != nil {
			t.Fatalf("Add broke the CSC invariants: %v", err)
		}
		at := a.Transpose()
		if err := CheckCSC(at); err != nil {
			t.Fatalf("Transpose broke the CSC invariants: %v", err)
		}
		if att := at.Transpose(); att.NNZ() != a.NNZ() {
			t.Fatalf("double transpose changed nnz: %d != %d", att.NNZ(), a.NNZ())
		}

		// A rotation is always a valid permutation.
		p := make([]int, n)
		for i := range p {
			p[i] = (i + int(rot)) % n
		}
		perm := PermuteSym(a, p)
		if err := CheckCSC(perm); err != nil {
			t.Fatalf("PermuteSym broke the CSC invariants: %v", err)
		}
		if perm.NNZ() != a.NNZ() {
			t.Fatalf("PermuteSym changed nnz: %d != %d", perm.NNZ(), a.NNZ())
		}
	})
}

// FuzzParseOrdering checks the ordering-name parser never panics.
func FuzzParseOrdering(f *testing.F) {
	for _, s := range []string{"", "rcm", "natural", "mindegree", "amd", "RCM ", "0", "nested"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if ord, err := ParseOrdering(s); err == nil {
			_ = ord.Resolve() // accepted names must also resolve
		}
	})
}

// FuzzLDLTvsDense checks the LDLᵀ engine against the dense oracle on
// arbitrary symmetric patterns under every ordering: each 3-byte chunk
// couples two nodes, diagonals are made strictly dominant, and the dead
// mask zeroes whole rows (pattern and diagonal) — exactly then the matrix is
// singular and the factorization must say ErrSingular; otherwise every
// solve flavour must land within 1e-10 of dense LU.
func FuzzLDLTvsDense(f *testing.F) {
	f.Add(uint8(5), uint8(0), uint64(0), []byte{0, 1, 9, 1, 2, 200, 2, 3, 40, 3, 4, 7, 0, 4, 100})
	f.Add(uint8(0), uint8(1), uint64(0), []byte{})
	f.Add(uint8(47), uint8(2), uint64(0), []byte{0, 47, 1, 1, 46, 2, 2, 45, 3, 7, 7, 7, 40, 3, 255})
	f.Add(uint8(11), uint8(3), uint64(1<<3), []byte{0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 9, 10, 5})
	f.Add(uint8(39), uint8(1), uint64(0), func() []byte {
		var b []byte // a dense 40-block: wider than the panel cap
		for i := 0; i < 40; i++ {
			for j := 0; j < i; j++ {
				b = append(b, byte(i), byte(j), byte(3*i+j))
			}
		}
		return b
	}())
	f.Fuzz(func(t *testing.T, dim, ord uint8, dead uint64, entries []byte) {
		n := int(dim)%48 + 1
		isDead := func(i int) bool { return dead>>uint(i)&1 == 1 }
		tr := NewTriplet(n, n)
		diag := make([]float64, n)
		singular := false
		for k := 0; k+2 < len(entries); k += 3 {
			i, j := int(entries[k])%n, int(entries[k+1])%n
			if i == j || isDead(i) || isDead(j) {
				continue
			}
			v := float64(int(entries[k+2])-128) / 64
			tr.Add(i, j, v)
			tr.Add(j, i, v)
			diag[i] += math.Abs(v)
			diag[j] += math.Abs(v)
		}
		for i := 0; i < n; i++ {
			if isDead(i) {
				singular = true
				continue
			}
			tr.Add(i, i, diag[i]+0.25)
		}
		a := tr.ToCSC()
		if err := CheckCSC(a); err != nil {
			t.Fatalf("ToCSC broke the CSC invariants: %v", err)
		}
		order := []Ordering{OrderNatural, OrderDefault, OrderMinDegree, OrderND}[ord%4]
		fac, err := FactorLDLT(a, order)
		if singular {
			if !errors.Is(err, ErrSingular) {
				t.Fatalf("order %v: matrix with an empty row factored: err = %v", order, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		checkFactorization(t, a, fac)
		checkSolves(t, a, fac, rand.New(rand.NewSource(int64(len(entries)))))
	})
}
