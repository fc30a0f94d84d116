// Package memo is the one bounded, content-keyed store the simulator keeps
// reusable work in: the factorization cache's numeric and symbolic tiers
// (internal/sparse), the job service's parsed and stamped decks
// (internal/serve) and a remote D-MATEX run's one deck upload per worker
// (internal/job).
//
// A Store builds each key's value once, however many callers ask for it at
// the same time, and keeps completed values in least-recently-used order
// under a byte Budget that one or more stores share. The policy is the
// store's, not its callers':
//
//   - a build runs outside the lock, and callers that arrive while it runs
//     wait for it and receive its value or its error;
//   - a failed build is not kept, so the next caller builds again;
//   - a build that panics releases its waiters with an error and leaves the
//     key buildable (the panic goes on to the caller that ran the build);
//   - a build in flight is never evicted and is charged nothing;
//   - once the charged bytes of every store on the budget pass its
//     capacity, the store that just completed an entry drops its own least
//     recently used completed entries, never its newest one — so a value
//     larger than the whole budget is still shared while it is the most
//     recent.
//
// An evicted value stays valid for whoever already holds it; values are
// shared, so callers must treat them as immutable.
package memo

import (
	"container/list"
	"errors"
	"sync"
)

// Budget is a byte bound shared by the stores created on it. Its mutex
// guards every one of those stores, so their LRU orders, counters and the
// shared charge change together.
type Budget struct {
	mu       sync.Mutex
	capacity int64
	used     int64
}

// NewBudget returns a bound of capacity bytes.
func NewBudget(capacity int64) *Budget { return &Budget{capacity: capacity} }

// Stats is one store's view: its completed entries and the bytes they are
// charged, lookups served by an entry (Hits, including callers that waited
// for a build in flight) against builds (Misses), and entries dropped to
// hold the budget.
type Stats struct {
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Store is a single-flight, byte-bounded LRU map from K to V. Create it with
// New.
type Store[K comparable, V any] struct {
	budget  *Budget
	entries map[K]*entry[K, V] // completed and in flight
	lru     *list.List         // completed entries, most recently used first
	stats   Stats              // Entries is filled in by Stats
}

// entry is one key's slot: ready closes once the build has finished and
// val/size/err are final; elem is nil until then.
type entry[K comparable, V any] struct {
	key   K
	ready chan struct{}
	val   V
	size  int64
	err   error
	elem  *list.Element
}

// errUnfinished is what the callers waiting on a build receive when it
// panicked instead of returning.
var errUnfinished = errors.New("memo: build did not finish")

// New returns an empty store charging its entries to b.
func New[K comparable, V any](b *Budget) *Store[K, V] {
	return &Store[K, V]{budget: b, entries: make(map[K]*entry[K, V]), lru: list.New()}
}

// Get returns the value stored under key, building it on first sight.
// build returns the value, the bytes to charge for it and an error; it runs
// once per key however many callers arrive while it runs. hit reports the
// value came from an entry (including one this call waited for) rather than
// from this call's own build.
func (s *Store[K, V]) Get(key K, build func() (V, int64, error)) (v V, hit bool, err error) {
	s.budget.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.stats.Hits++
		if e.elem != nil {
			s.lru.MoveToFront(e.elem)
		}
		s.budget.mu.Unlock()
		<-e.ready
		return e.val, true, e.err
	}
	// Until build returns, the entry's outcome is errUnfinished: if build
	// panics, settle still runs and releases the waiters with it.
	e := &entry[K, V]{key: key, ready: make(chan struct{}), err: errUnfinished}
	s.entries[key] = e
	s.stats.Misses++
	s.budget.mu.Unlock()

	defer s.settle(e)
	e.val, e.size, e.err = build()
	return e.val, false, e.err
}

// settle publishes a finished build: a failed one is forgotten, a successful
// one becomes the most recently used entry and is charged, and least
// recently used entries of this store go until the budget holds or only the
// newest is left.
func (s *Store[K, V]) settle(e *entry[K, V]) {
	b := s.budget
	b.mu.Lock()
	if e.err != nil {
		delete(s.entries, e.key)
	} else {
		e.elem = s.lru.PushFront(e)
		s.stats.Bytes += e.size
		b.used += e.size
		for b.used > b.capacity && s.lru.Len() > 1 {
			old := s.lru.Remove(s.lru.Back()).(*entry[K, V])
			delete(s.entries, old.key)
			s.stats.Bytes -= old.size
			b.used -= old.size
			s.stats.Evictions++
		}
	}
	b.mu.Unlock()
	close(e.ready)
}

// Peek returns the completed value under key and marks it most recently
// used. A build still in flight is not there yet. Peek counts neither a hit
// nor a miss.
func (s *Store[K, V]) Peek(key K) (V, bool) {
	s.budget.mu.Lock()
	defer s.budget.mu.Unlock()
	if e, ok := s.entries[key]; ok && e.elem != nil {
		s.lru.MoveToFront(e.elem)
		return e.val, true
	}
	var zero V
	return zero, false
}

// Lookup returns the value under key without building it: a completed
// entry, or the outcome of a build in flight, which it waits for (a failed
// build is not found). A key the store holds or is building counts as a
// hit; any other counts nothing.
func (s *Store[K, V]) Lookup(key K) (V, bool) {
	s.budget.mu.Lock()
	e, ok := s.entries[key]
	if ok {
		s.stats.Hits++
		if e.elem != nil {
			s.lru.MoveToFront(e.elem)
		}
	}
	s.budget.mu.Unlock()
	if !ok {
		var zero V
		return zero, false
	}
	<-e.ready
	return e.val, e.err == nil
}

// Stats returns the store's counters.
func (s *Store[K, V]) Stats() Stats {
	s.budget.mu.Lock()
	defer s.budget.mu.Unlock()
	st := s.stats
	st.Entries = s.lru.Len()
	return st
}
