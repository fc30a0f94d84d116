package sparse

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// cacheTestMatrix builds a small SPD tridiagonal matrix with a parameterized
// diagonal, so distinct seeds yield distinct content.
func cacheTestMatrix(n int, diag float64) *CSC {
	tr := NewTriplet(n, n)
	for i := 0; i < n; i++ {
		tr.Add(i, i, diag)
		if i+1 < n {
			tr.Add(i, i+1, -1)
			tr.Add(i+1, i, -1)
		}
	}
	return tr.ToCSC()
}

func TestFingerprintSensitivity(t *testing.T) {
	a := cacheTestMatrix(10, 4)
	b := cacheTestMatrix(10, 4)
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("identical matrices fingerprint differently")
	}
	b.Values[3] += 1e-12
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatal("value change not reflected in fingerprint")
	}
	c := cacheTestMatrix(11, 4)
	if Fingerprint(a) == Fingerprint(c) {
		t.Fatal("dimension change not reflected in fingerprint")
	}
}

func TestCacheHitReturnsSameFactorization(t *testing.T) {
	c := NewCache(0)
	a := cacheTestMatrix(20, 4)
	f1, info1, err := c.Factor(a, FactorAuto, OrderDefault)
	if err != nil {
		t.Fatal(err)
	}
	if info1.Hit {
		t.Error("first acquisition reported as hit")
	}
	// A content-equal but distinct matrix object must hit.
	f2, info2, err := c.Factor(cacheTestMatrix(20, 4), FactorAuto, OrderDefault)
	if err != nil {
		t.Fatal(err)
	}
	if !info2.Hit {
		t.Error("content-equal matrix missed")
	}
	if f1 != f2 {
		t.Error("hit returned a different factorization object")
	}
	// The key holds the resolved ordering: naming the default's resolution
	// explicitly is the same entry, whatever that resolution is.
	if f3, info3, _ := c.Factor(a, FactorAuto, OrderDefault.Resolve()); !info3.Hit || f3 != f1 {
		t.Error("OrderDefault and OrderDefault.Resolve() produced distinct cache entries")
	}
	// A different kind, ordering or content misses.
	if _, info, _ := c.Factor(a, FactorGPLU, OrderDefault); info.Hit {
		t.Error("different FactorKind hit the LDLT entry")
	}
	if _, info, _ := c.Factor(a, FactorAuto, OrderNatural); info.Hit {
		t.Error("different ordering hit")
	}
	if _, info, _ := c.Factor(cacheTestMatrix(20, 5), FactorAuto, OrderDefault); info.Hit {
		t.Error("different content hit")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 4 {
		t.Errorf("stats = %+v, want 2 hits / 4 misses", st)
	}
}

func TestCacheFactorSumSolvesCorrectly(t *testing.T) {
	c := NewCache(0)
	a := cacheTestMatrix(15, 4)
	b := cacheTestMatrix(15, 6)
	alpha, beta := 2.5, 0.75
	f, info, err := c.FactorSum(alpha, a, beta, b, FactorAuto, OrderDefault)
	if err != nil {
		t.Fatal(err)
	}
	if info.Hit {
		t.Error("first FactorSum reported as hit")
	}
	// Solve (alpha·a + beta·b) x = rhs and verify the residual directly.
	n := 15
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i%3) - 1
	}
	x := make([]float64, n)
	f.Solve(x, rhs)
	sum := Add(alpha, a, beta, b)
	check := make([]float64, n)
	sum.MulVec(check, x)
	for i := range check {
		if math.Abs(check[i]-rhs[i]) > 1e-10 {
			t.Fatalf("residual %g at row %d", check[i]-rhs[i], i)
		}
	}
	// Same scalars hit; different scalars miss (the shift is in the key).
	if _, info, _ := c.FactorSum(alpha, a, beta, b, FactorAuto, OrderDefault); !info.Hit {
		t.Error("identical FactorSum missed")
	}
	if _, info, _ := c.FactorSum(alpha, a, beta*1.000001, b, FactorAuto, OrderDefault); info.Hit {
		t.Error("different beta hit")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Budget sized to hold only a couple of 30-node tridiagonal factors.
	c := NewCache(4 << 10)
	for d := 0; d < 12; d++ {
		if _, _, err := c.Factor(cacheTestMatrix(30, 4+float64(d)), FactorAuto, OrderDefault); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget: %+v", 4<<10, st)
	}
	if st.Bytes > (4<<10)+4096 {
		t.Errorf("cache bytes %d far above budget", st.Bytes)
	}
	if st.Entries >= 12 {
		t.Errorf("all %d entries retained despite budget", st.Entries)
	}
	// The most recently used entry must have survived.
	if _, info, _ := c.Factor(cacheTestMatrix(30, 15), FactorAuto, OrderDefault); !info.Hit {
		t.Error("most recent entry was evicted")
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache(0)
	a := cacheTestMatrix(60, 4)
	const goroutines = 16
	var wg sync.WaitGroup
	factors := make([]Factorization, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f, _, err := c.Factor(a, FactorAuto, OrderDefault)
			if err != nil {
				t.Error(err)
				return
			}
			factors[g] = f
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("%d concurrent requests computed %d factorizations, want 1", goroutines, st.Misses)
	}
	for g := 1; g < goroutines; g++ {
		if factors[g] != factors[0] {
			t.Fatal("concurrent requests returned distinct factorizations")
		}
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := NewCache(0)
	// Structurally singular: an all-zero column.
	tr := NewTriplet(3, 3)
	tr.Add(0, 0, 1)
	tr.Add(1, 1, 1)
	singular := tr.ToCSC()
	if _, _, err := c.Factor(singular, FactorGPLU, OrderNatural); err == nil {
		t.Fatal("singular matrix factorized")
	}
	st := c.Stats()
	if st.Entries != 0 {
		t.Errorf("failed factorization left %d cache entries", st.Entries)
	}
}

func TestCacheConcurrentMixedKeys(t *testing.T) {
	// Hammer the cache from many goroutines over a small key space with a
	// tight budget, so insertion, hits and eviction race — run under
	// -race in CI.
	c := NewCache(8 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				d := 4 + float64(r.Intn(6))
				if r.Intn(2) == 0 {
					if _, _, err := c.Factor(cacheTestMatrix(25, d), FactorAuto, OrderDefault); err != nil {
						t.Error(err)
					}
				} else {
					a := cacheTestMatrix(25, d)
					if _, _, err := c.FactorSum(1, a, 0.5, a, FactorAuto, OrderDefault); err != nil {
						t.Error(err)
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
}
