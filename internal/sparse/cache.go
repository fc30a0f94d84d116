package sparse

import (
	"container/list"
	"math"
	"sync"
)

// Fingerprint returns a cheap content hash of the matrix: dimensions, the
// column pointers, the row indices and the raw value bits, folded with
// FNV-1a. Two matrices with equal fingerprints are treated as identical by
// the factorization cache, so the hash covers every input the factorization
// depends on. Cost is O(n + nnz) with no allocation — negligible next to a
// factorization.
func Fingerprint(a *CSC) uint64 {
	h := uint64(fnvOffset)
	h = fnvMix(h, uint64(a.Rows))
	h = fnvMix(h, uint64(a.Cols))
	h = fnvMix(h, uint64(len(a.Values)))
	for _, p := range a.Colptr {
		h = fnvMix(h, uint64(p))
	}
	for _, i := range a.Rowidx {
		h = fnvMix(h, uint64(i))
	}
	for _, v := range a.Values {
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

// cacheKey identifies one factorization: alpha·A + beta·B under a solver
// configuration. A single-matrix factorization is keyed as 1·A + 0·0.
// Scalars stay in the key so the summed matrix never needs to be built
// (or hashed) to recognize a hit — the adaptive stepper's (C/h + G/2)
// lookups cost two base-matrix hashes regardless of h.
type cacheKey struct {
	fpA, fpB    uint64
	alpha, beta float64
	kind        FactorKind
	order       Ordering
}

// cacheEntry is one cached (or in-flight) factorization. ready is closed
// once f/err are set, so concurrent requests for the same key wait for the
// first computation instead of duplicating it.
type cacheEntry struct {
	key   cacheKey
	ready chan struct{}
	f     Factorization
	err   error
	bytes int64
	done  bool
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
// ordering. FactorKind is not part of the key — only LDLT has a symbolic
// phase.
type symKey struct {
	patFP uint64
	order Ordering
}

// symEntry is one cached (or in-flight) symbolic analysis.
type symEntry struct {
	key   symKey
	ready chan struct{}
	sym   *Symbolic
	err   error
	bytes int64
	done  bool
}

// symCap bounds the symbolic tier's entry count; its bytes are further
// charged against the cache's shared byte budget. A run touches a handful
// of distinct patterns (C, G, C+γG, C/h+G/2 families), so the depth bound
// rarely binds.
const symCap = 64

// Cache is a concurrency-safe, content-addressed factorization cache with an
// LRU byte budget. It is shared across solvers, the adaptive stepper and
// distributed workers: any two requests for the same matrix content, kind,
// ordering and scalar shift return the same Factorization, and concurrent
// first requests are coalesced into a single computation.
//
// Factorizations are immutable once computed, so a cached value may be used
// from any number of goroutines.
type Cache struct {
	mu        sync.Mutex
	capacity  int64
	bytes     int64
	ll        *list.List // front = most recently used
	entries   map[cacheKey]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64

	// Symbolic tier: pattern-fingerprint-keyed analyses shared by every
	// numeric factorization of the same sparsity pattern — all scalar shifts
	// C + γG on the adaptive grid resolve to one analysis here.
	symLL      *list.List // front = most recently used
	symEntries map[symKey]*list.Element
	symBytes   int64
	symHits    uint64
	symMisses  uint64
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
	return &Cache{
		capacity:   maxBytes,
		ll:         list.New(),
		entries:    make(map[cacheKey]*list.Element),
		symLL:      list.New(),
		symEntries: make(map[symKey]*list.Element),
	}
}

// Factor returns a factorization of a, computing and caching it on first
// use. hit reports whether the result came from the cache (including joining
// a computation already in flight). Failed factorizations are not cached.
func (c *Cache) Factor(a *CSC, kind FactorKind, order Ordering) (f Factorization, hit bool, err error) {
	f, info, err := c.FactorEx(a, kind, order)
	return f, info.Hit, err
}

// FactorEx is Factor with the full acquisition breakdown: how the result was
// served (cache hit, symbolic-tier hit, refactorization).
func (c *Cache) FactorEx(a *CSC, kind FactorKind, order Ordering) (Factorization, FactorInfo, error) {
	order = order.Resolve()
	key := cacheKey{fpA: Fingerprint(a), alpha: 1, kind: kind, order: order}
	return c.getOrCompute(key, func() (Factorization, FactorInfo, error) {
		return c.factorSymbolic(a, kind, order)
	})
}

// FactorSum returns a factorization of alpha·a + beta·b, computing and
// caching it on first use. The key is built from the base-matrix
// fingerprints and the scalars, so a cache hit never materializes the sum —
// this is what makes repeated (C/h + G/2) and (C + γG) acquisitions cheap.
func (c *Cache) FactorSum(alpha float64, a *CSC, beta float64, b *CSC, kind FactorKind, order Ordering) (f Factorization, hit bool, err error) {
	f, info, err := c.FactorSumEx(alpha, a, beta, b, kind, order)
	return f, info.Hit, err
}

// FactorSumEx is FactorSum with the full acquisition breakdown. On a cache
// miss the sum matrix is materialized once for the numeric phase, but every
// scalar shift of one base-pattern pair shares a single symbolic analysis:
// the sum's sparsity pattern is scalar-independent, so the shift grid costs
// one ordering + elimination analysis total, then one cheap Refactor per
// distinct shift.
func (c *Cache) FactorSumEx(alpha float64, a *CSC, beta float64, b *CSC, kind FactorKind, order Ordering) (Factorization, FactorInfo, error) {
	order = order.Resolve()
	key := cacheKey{
		fpA: Fingerprint(a), fpB: Fingerprint(b),
		alpha: alpha, beta: beta, kind: kind, order: order,
	}
	return c.getOrCompute(key, func() (Factorization, FactorInfo, error) {
		return c.factorSymbolic(Add(alpha, a, beta, b), kind, order)
	})
}

// factorSymbolic computes a factorization of the materialized matrix,
// routing the symmetric LDLT path through the pattern-keyed symbolic tier.
// FactorAuto falls back to LU exactly like sparse.Factor when the matrix is
// unsymmetric or the LDLT pivots break down.
func (c *Cache) factorSymbolic(m *CSC, kind FactorKind, order Ordering) (Factorization, FactorInfo, error) {
	tryLDLT := kind == FactorLDLt || (kind == FactorAuto && m.Rows == m.Cols && m.IsSymmetric(0))
	if tryLDLT {
		sym, symHit, err := c.symbolic(m, order)
		if err == nil {
			f, ferr := sym.Refactor(m)
			if ferr == nil {
				return f, FactorInfo{SymbolicHit: symHit, Refactored: true}, nil
			}
			if kind == FactorLDLt {
				return nil, FactorInfo{SymbolicHit: symHit}, ferr
			}
		} else if kind == FactorLDLt {
			return nil, FactorInfo{}, err
		}
	}
	f, err := FactorLU(m, order, 1.0)
	return f, FactorInfo{}, err
}

// symbolic returns the cached pattern analysis for m under order, computing
// it on first use with the same singleflight discipline as factorizations.
func (c *Cache) symbolic(m *CSC, order Ordering) (*Symbolic, bool, error) {
	key := symKey{patFP: PatternFingerprint(m), order: order}
	c.mu.Lock()
	if el, ok := c.symEntries[key]; ok {
		e := el.Value.(*symEntry)
		c.symLL.MoveToFront(el)
		c.symHits++
		c.mu.Unlock()
		<-e.ready
		return e.sym, true, e.err
	}
	e := &symEntry{key: key, ready: make(chan struct{})}
	el := c.symLL.PushFront(e)
	c.symEntries[key] = el
	c.symMisses++
	c.mu.Unlock()

	sym, err := AnalyzeLDLT(m, order)
	c.mu.Lock()
	if err != nil {
		e.err = err
		if cur, ok := c.symEntries[key]; ok && cur == el {
			delete(c.symEntries, key)
			c.symLL.Remove(el)
		}
	} else {
		e.sym = sym
		e.bytes = sym.Bytes()
		e.done = true
		if cur, ok := c.symEntries[key]; ok && cur == el {
			c.symBytes += e.bytes
			// LRU bounded by depth and by the shared byte budget (analyses
			// count against the same capacity as factors): completed
			// entries fall off the back, keeping at least one. Factors
			// holding a dropped analysis keep their own reference; only
			// future pattern reuse re-analyzes.
			for c.symLL.Len() > 1 &&
				(c.symLL.Len() > symCap || c.bytes+c.symBytes > c.capacity) {
				back := c.symLL.Back()
				be := back.Value.(*symEntry)
				if !be.done {
					break
				}
				c.symLL.Remove(back)
				delete(c.symEntries, be.key)
				c.symBytes -= be.bytes
			}
		}
	}
	c.mu.Unlock()
	close(e.ready)
	return sym, false, err
}

// getOrCompute implements the singleflight lookup: the first request for a
// key computes outside the lock while later requests block on ready.
func (c *Cache) getOrCompute(key cacheKey, build func() (Factorization, FactorInfo, error)) (Factorization, FactorInfo, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		c.ll.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		<-e.ready
		return e.f, FactorInfo{Hit: true}, e.err
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	el := c.ll.PushFront(e)
	c.entries[key] = el
	c.misses++
	c.mu.Unlock()

	f, info, err := build()
	c.mu.Lock()
	if err != nil {
		// Do not cache failures: a singular matrix error must stay
		// re-observable (callers regularize and retry with a shifted key).
		e.err = err
		if cur, ok := c.entries[key]; ok && cur == el {
			delete(c.entries, key)
			c.ll.Remove(el)
		}
	} else {
		e.f = f
		e.bytes = factorBytes(f)
		e.done = true
		// A Reset racing this computation may have already dropped the
		// entry; only account for it while it is still tracked.
		if cur, ok := c.entries[key]; ok && cur == el {
			c.bytes += e.bytes
			c.evictLocked()
		}
	}
	c.mu.Unlock()
	close(e.ready)
	return f, info, err
}

// evictLocked drops least-recently-used completed entries until the byte
// budget holds — the symbolic tier's bytes count against the same budget.
// In-flight entries and the sole remaining entry are never evicted (a
// single factorization above budget is kept — evicting it would just
// thrash).
func (c *Cache) evictLocked() {
	el := c.ll.Back()
	for el != nil && c.bytes+c.symBytes > c.capacity && c.ll.Len() > 1 {
		prev := el.Prev()
		e := el.Value.(*cacheEntry)
		if e.done {
			c.ll.Remove(el)
			delete(c.entries, e.key)
			c.bytes -= e.bytes
			c.evictions++
		}
		el = prev
	}
}

// factorBytes estimates the resident size of a factorization from its fill:
// 16 bytes per stored factor entry (value + index) plus permutation and
// pointer overhead per dimension.
func factorBytes(f Factorization) int64 {
	return int64(f.NNZ())*16 + int64(f.N())*32
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: c.ll.Len(), Bytes: c.bytes,
		SymbolicHits: c.symHits, SymbolicMisses: c.symMisses,
		SymbolicEntries: c.symLL.Len(), SymbolicBytes: c.symBytes,
	}
}

// Reset drops every cached factorization and zeroes the counters. Entries
// still in flight complete but are no longer retained.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.entries = make(map[cacheKey]*list.Element)
	c.bytes = 0
	c.hits, c.misses, c.evictions = 0, 0, 0
	c.symLL.Init()
	c.symEntries = make(map[symKey]*list.Element)
	c.symBytes = 0
	c.symHits, c.symMisses = 0, 0
}
