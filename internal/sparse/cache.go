package sparse

import (
	"math"

	"github.com/matex-sim/matex/internal/memo"
)

// Fingerprint returns a cheap content hash of the matrix: its pattern
// fingerprint with the raw value bits folded in, FNV-1a. Two matrices with
// equal fingerprints are treated as identical by the factorization cache,
// so the hash covers every input the factorization depends on. Cost is
// O(n + nnz) with no allocation — negligible next to a factorization.
func Fingerprint(a *CSC) uint64 { return foldValues(PatternFingerprint(a), a.Values) }

// foldValues folds the bits of values into the FNV-1a state h.
func foldValues(h uint64, values []float64) uint64 {
	for _, v := range values {
		h = fnvMix(h, math.Float64bits(v))
	}
	return h
}

const fnvOffset = 14695981039346656037

// fnvMix folds one 64-bit word into an FNV-1a state byte by byte.
func fnvMix(h, w uint64) uint64 {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		h ^= w & 0xff
		h *= prime
		w >>= 8
	}
	return h
}

// cacheKey identifies one factorization: alpha·A + beta·B under an
// ordering. A single-matrix factorization is keyed as 1·A + 0·0.
// Scalars stay in the key so the summed matrix never needs to be built
// (or hashed) to recognize a hit — the adaptive stepper's (C/h + G/2)
// lookups cost two base-matrix hashes regardless of h.
type cacheKey struct {
	fpA, fpB    uint64
	alpha, beta float64
	order       Ordering
}

// CacheStats is a snapshot of cache effectiveness counters.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
	Bytes                   int64
	// SymbolicHits/SymbolicMisses count symbolic-tier lookups: a hit means a
	// numeric factorization had to run but reused a cached pattern analysis
	// (Refactor) instead of recomputing ordering + elimination structure.
	SymbolicHits, SymbolicMisses uint64
	SymbolicEntries              int
	SymbolicBytes                int64
}

// FactorInfo describes how one cache acquisition was served.
type FactorInfo struct {
	// Hit reports the factorization came from the cache (including joining a
	// computation already in flight).
	Hit bool
	// SymbolicHit reports a numeric factorization was computed against a
	// cached symbolic analysis (pattern-fingerprint tier).
	SymbolicHit bool
	// Refactored reports the factorization went through Symbolic.Refactor
	// (LDLT numeric phase only) rather than a from-scratch factorization.
	Refactored bool
}

// symKey identifies one symbolic analysis: a sparsity pattern under an
// ordering.
type symKey struct {
	patFP uint64
	order Ordering
}

// Cache is a concurrency-safe, content-addressed factorization cache with an
// LRU byte budget. It is shared across solvers, the adaptive stepper and
// distributed workers: any two requests for the same matrix content,
// ordering and scalar shift return the same Factorization, and concurrent
// first requests are coalesced into a single computation. Failed
// factorizations are not cached: a singular matrix error must stay
// re-observable (callers regularize and retry with a shifted key).
//
// Factorizations are immutable once computed, so a cached value may be used
// from any number of goroutines.
type Cache struct {
	factors *memo.Store[cacheKey, Factorization]
	// analyses is the symbolic tier: pattern-fingerprint-keyed analyses
	// shared by every numeric factorization of the same sparsity pattern —
	// all scalar shifts C + γG on the adaptive grid resolve to one analysis
	// here. Both tiers charge one byte budget and each evicts only its own
	// entries; a factor holding a dropped analysis keeps its own reference,
	// only future pattern reuse re-analyzes.
	analyses *memo.Store[symKey, *Symbolic]
}

// DefaultCacheBytes is the byte budget used when NewCache is given a
// non-positive capacity.
const DefaultCacheBytes = 512 << 20

// NewCache returns a cache bounded to roughly maxBytes of factor storage
// (estimated from factor fill, not measured). maxBytes <= 0 selects
// DefaultCacheBytes.
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	budget := memo.NewBudget(maxBytes)
	return &Cache{
		factors:  memo.New[cacheKey, Factorization](budget),
		analyses: memo.New[symKey, *Symbolic](budget),
	}
}

// Factor returns a factorization of a, computing and caching it on first
// use, and how it was served (cache hit, symbolic-tier hit,
// refactorization). It is the one place a factorization is chosen: LDLᵀ
// when a is symmetric and its pivots hold, Gilbert-Peierls LU otherwise.
func (c *Cache) Factor(a *CSC, order Ordering) (Factorization, FactorInfo, error) {
	order = order.Resolve()
	pat := PatternFingerprint(a)
	key := cacheKey{fpA: foldValues(pat, a.Values), alpha: 1, order: order}
	return c.factor(key, func() (*CSC, uint64) { return a, pat })
}

// FactorSum returns a factorization of alpha·a + beta·b, computing and
// caching it on first use. The key is built from the base-matrix
// fingerprints and the scalars, so a cache hit never materializes the sum —
// this is what makes repeated (C/h + G/2) and (C + γG) acquisitions cheap.
// On a miss the sum is materialized once for the numeric phase, but every
// scalar shift of one base-pattern pair shares a single symbolic analysis:
// the sum's sparsity pattern is scalar-independent, so the shift grid costs
// one ordering + elimination analysis total, then one cheap Refactor per
// distinct shift.
func (c *Cache) FactorSum(alpha float64, a *CSC, beta float64, b *CSC, order Ordering) (Factorization, FactorInfo, error) {
	order = order.Resolve()
	key := cacheKey{
		fpA: Fingerprint(a), fpB: Fingerprint(b),
		alpha: alpha, beta: beta, order: order,
	}
	return c.factor(key, func() (*CSC, uint64) {
		m := Add(alpha, a, beta, b)
		return m, PatternFingerprint(m)
	})
}

// factor looks key up in the numeric tier, factorizing the matrix m builds
// on a miss; m also returns that matrix's pattern fingerprint.
func (c *Cache) factor(key cacheKey, m func() (*CSC, uint64)) (Factorization, FactorInfo, error) {
	var info FactorInfo
	f, hit, err := c.factors.Get(key, func() (Factorization, int64, error) {
		a, pat := m()
		f, built, err := c.factorSymbolic(a, pat, key.order)
		info = built
		if err != nil {
			return nil, 0, err
		}
		return f, factorBytes(f), nil
	})
	info.Hit = hit
	return f, info, err
}

// factorSymbolic computes a factorization of the materialized matrix m,
// whose pattern fingerprint is pat: a symmetric one goes through the
// pattern-keyed symbolic tier to LDLᵀ, and one that is unsymmetric or whose
// LDLᵀ pivots break down falls back to LU.
func (c *Cache) factorSymbolic(m *CSC, pat uint64, order Ordering) (Factorization, FactorInfo, error) {
	if m.Rows == m.Cols && m.IsSymmetric(0) {
		if sym, symHit, err := c.symbolic(m, pat, order); err == nil {
			if f, err := sym.Refactor(m); err == nil {
				return f, FactorInfo{SymbolicHit: symHit, Refactored: true}, nil
			}
		}
	}
	f, err := FactorLU(m, order, 1.0)
	return f, FactorInfo{}, err
}

// symbolic returns the cached pattern analysis for m, whose pattern
// fingerprint is pat, under order, computing it on first use.
func (c *Cache) symbolic(m *CSC, pat uint64, order Ordering) (*Symbolic, bool, error) {
	return c.analyses.Get(symKey{patFP: pat, order: order}, func() (*Symbolic, int64, error) {
		sym, err := AnalyzeLDLT(m, order)
		if err != nil {
			return nil, 0, err
		}
		return sym, sym.Bytes(), nil
	})
}

// factorBytes estimates the resident size of a factorization from its fill:
// 16 bytes per stored factor entry (value + index) plus permutation and
// pointer overhead per dimension, and an LDLᵀ's stored reciprocal pivots.
func factorBytes(f Factorization) int64 {
	b := int64(f.NNZ())*16 + int64(f.N())*32
	if _, ok := f.(*LDLT); ok {
		b += int64(f.N()) * 8
	}
	return b
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	f, s := c.factors.Stats(), c.analyses.Stats()
	return CacheStats{
		Hits: f.Hits, Misses: f.Misses, Evictions: f.Evictions,
		Entries: f.Entries, Bytes: f.Bytes,
		SymbolicHits: s.Hits, SymbolicMisses: s.Misses,
		SymbolicEntries: s.Entries, SymbolicBytes: s.Bytes,
	}
}
