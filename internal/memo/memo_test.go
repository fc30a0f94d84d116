package memo

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// sized returns a build of v charged size bytes.
func sized(v string, size int64) func() (string, int64, error) {
	return func() (string, int64, error) { return v, size, nil }
}

// TestSingleFlight: concurrent first sights of one key run the build once;
// every caller gets its value, the waiters count as hits.
func TestSingleFlight(t *testing.T) {
	st := New[string, *int](NewBudget(1 << 20))
	var builds atomic.Int32
	release := make(chan struct{})
	const n = 16
	got := make([]*int, n)
	hits := make([]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, err := st.Get("k", func() (*int, int64, error) {
				builds.Add(1)
				<-release // hold the build open until every caller has arrived
				return new(int), 10, nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i], hits[i] = v, hit
		}(i)
	}
	for st.Stats().Hits < n-1 {
		runtime.Gosched() // the waiters are counted before they block on the build
	}
	if _, ok := st.Peek("k"); ok {
		t.Error("Peek saw a build still in flight")
	}
	close(release)
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("%d builds for one key, want 1", builds.Load())
	}
	misses := 0
	for i := 0; i < n; i++ {
		if got[i] != got[0] || got[i] == nil {
			t.Fatalf("caller %d got a different value", i)
		}
		if !hits[i] {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d callers reported building, want 1", misses)
	}
	if s := st.Stats(); s != (Stats{Entries: 1, Bytes: 10, Hits: n - 1, Misses: 1}) {
		t.Fatalf("stats %+v, want 1 miss, %d hits, 1 entry of 10 bytes", s, n-1)
	}
}

// TestByteBoundLRU: the charged bytes stay within the budget, eviction takes
// the least recently used entry (a Get and a Peek each count as a use), an
// evicted value stays with whoever holds it, and a Peek counts no hit.
func TestByteBoundLRU(t *testing.T) {
	const capacity, size = 1000, 100
	const resident, total = capacity / size, 3 * capacity / size
	st := New[string, string](NewBudget(capacity))
	first, _, err := st.Get("d0", sized("d0", size))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < total; i++ {
		key := fmt.Sprintf("d%d", i)
		if _, _, err := st.Get(key, sized(key, size)); err != nil {
			t.Fatal(err)
		}
		// Keep d1 hot by Get and d2 by Peek: both must outlive everything
		// colder.
		if i > 2 {
			if _, hit, _ := st.Get("d1", sized("d1", size)); !hit {
				t.Fatalf("after %d entries the one kept hot by Get was rebuilt", i+1)
			}
			if _, ok := st.Peek("d2"); !ok {
				t.Fatalf("after %d entries the one kept hot by Peek is gone", i+1)
			}
		}
		if s := st.Stats(); s.Bytes > capacity || s.Bytes != int64(s.Entries)*size {
			t.Fatalf("after %d entries: %d bytes in %d entries, capacity %d", i+1, s.Bytes, s.Entries, capacity)
		}
	}
	if s := st.Stats(); s != (Stats{Entries: resident, Bytes: capacity, Hits: total - 3, Misses: total, Evictions: total - resident}) {
		t.Fatalf("stats %+v, want %d entries, %d hits (Gets of d1, not Peeks of d2), %d misses, %d evictions",
			s, resident, total-3, total, total-resident)
	}
	if first != "d0" {
		t.Fatalf("the evicted value a caller holds changed: %q", first)
	}
	// The survivors are exactly the most recently used: d1, d2 and the
	// newest.
	for i := 0; i < total; i++ {
		key := fmt.Sprintf("d%d", i)
		_, ok := st.Peek(key)
		if want := i == 1 || i == 2 || i >= total-(resident-2); ok != want {
			t.Errorf("%s resident %v, want %v", key, ok, want)
		}
	}
}

// TestNewestStays: an entry larger than the whole budget is kept while it is
// the newest, alone, and is the first to go after it.
func TestNewestStays(t *testing.T) {
	const capacity = 1000
	st := New[string, string](NewBudget(capacity))
	for _, k := range []string{"a", "b"} {
		if _, _, err := st.Get(k, sized(k, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := st.Get("huge", sized("huge", 5*capacity)); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Entries != 1 || s.Bytes != 5*capacity || s.Evictions != 2 {
		t.Fatalf("oversized entry: %+v, want it resident alone", s)
	}
	if _, hit, _ := st.Get("huge", sized("huge", 5*capacity)); !hit {
		t.Fatal("the oversized newest entry was not shared")
	}
	if _, _, err := st.Get("c", sized("c", 100)); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Entries != 1 || s.Bytes != 100 {
		t.Fatalf("after the next entry: %+v, want the oversized one gone", s)
	}
}

// TestInFlightNotEvicted: a build in flight is charged nothing and survives
// any amount of eviction around it; it is charged once it completes.
func TestInFlightNotEvicted(t *testing.T) {
	const capacity, size = 300, 100
	st := New[string, string](NewBudget(capacity))
	release := make(chan struct{})
	done := make(chan string, 1)
	started := make(chan struct{})
	go func() {
		v, _, err := st.Get("slow", func() (string, int64, error) {
			close(started)
			<-release
			return "slow", size, nil
		})
		if err != nil {
			t.Error(err)
		}
		done <- v
	}()
	<-started
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, _, err := st.Get(key, sized(key, size)); err != nil {
			t.Fatal(err)
		}
	}
	if s := st.Stats(); s.Entries != 3 || s.Bytes != capacity || s.Evictions != 7 {
		t.Fatalf("stats %+v with a build in flight, want 3 completed entries filling the budget", s)
	}
	// A caller arriving now joins the build in flight: it was not evicted.
	joined := make(chan bool, 1)
	go func() {
		_, hit, err := st.Get("slow", func() (string, int64, error) { return "rebuilt", size, nil })
		if err != nil {
			t.Error(err)
		}
		joined <- hit
	}()
	for st.Stats().Hits == 0 {
		runtime.Gosched()
	}
	close(release)
	if v := <-done; v != "slow" {
		t.Fatalf("the build in flight returned %q", v)
	}
	if !<-joined {
		t.Fatal("the caller that arrived during the build built again")
	}
	if v, ok := st.Peek("slow"); !ok || v != "slow" {
		t.Fatalf("the completed build is not resident: %q %v", v, ok)
	}
	if s := st.Stats(); s.Entries != 3 || s.Bytes != capacity || s.Evictions != 8 {
		t.Fatalf("stats %+v after the build completed, want it charged and one more evicted", s)
	}
}

// TestFailedBuildNotKept: a build error reaches the caller that ran it and
// every caller waiting on it, and leaves nothing behind; the next sight
// builds again.
func TestFailedBuildNotKept(t *testing.T) {
	st := New[string, string](NewBudget(1000))
	bad := errors.New("bad input")
	release := make(chan struct{})
	waiter := make(chan error, 1)
	go func() {
		for st.Stats().Misses == 0 {
			runtime.Gosched() // until the failing build has started
		}
		_, _, err := st.Get("k", sized("never", 1))
		waiter <- err
	}()
	go func() {
		for st.Stats().Hits == 0 {
			runtime.Gosched() // until the waiter is committed to the failing build
		}
		close(release)
	}()
	_, _, err := st.Get("k", func() (string, int64, error) {
		<-release
		return "", 0, bad
	})
	if !errors.Is(err, bad) {
		t.Fatalf("the building caller got %v, want the build error", err)
	}
	if err := <-waiter; !errors.Is(err, bad) {
		t.Fatalf("waiter got %v, want the build error", err)
	}
	if s := st.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("failed build left %+v behind", s)
	}
	if v, hit, err := st.Get("k", sized("v", 1)); err != nil || hit || v != "v" {
		t.Fatalf("rebuild after a failure: %q hit=%v err=%v", v, hit, err)
	}
	if s := st.Stats(); s.Misses != 2 || s.Entries != 1 {
		t.Fatalf("stats %+v, want 2 misses and 1 entry", s)
	}
}

// TestPanickingBuildReleasesWaiters: a build that panics takes its own
// caller down, not the callers waiting on it — they get an error, and the
// key is free to be built again.
func TestPanickingBuildReleasesWaiters(t *testing.T) {
	st := New[string, string](NewBudget(1000))
	building := make(chan struct{})
	waiter := make(chan error, 1)
	go func() {
		<-building
		_, _, err := st.Get("k", sized("waiter built it", 1))
		waiter <- err
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the build's panic did not reach its caller")
			}
		}()
		st.Get("k", func() (string, int64, error) {
			close(building)
			for st.Stats().Hits == 0 {
				runtime.Gosched() // until the waiter is counted, i.e. committed to this build
			}
			panic("a bug in the build")
		})
	}()
	if err := <-waiter; err == nil {
		t.Fatal("a caller waiting on a panicked build got a value")
	}
	if s := st.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("panicked build left %+v behind", s)
	}
	if v, _, err := st.Get("k", sized("v", 1)); err != nil || v != "v" {
		t.Fatalf("the key stayed poisoned: %q %v", v, err)
	}
}

// TestSharedBudget: two stores on one budget are bounded together, and each
// evicts only its own entries — never below its newest.
func TestSharedBudget(t *testing.T) {
	b := NewBudget(1000)
	big := New[string, string](b)
	small := New[int, int](b)
	if _, _, err := big.Get("a", sized("a", 600)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := small.Get(i, func() (int, int64, error) { return i, 100, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// 600 + 4·100 fits; the fifth small entry evicts the oldest small one,
	// not the big store's entry.
	if s := small.Stats(); s.Entries != 4 || s.Evictions != 1 {
		t.Fatalf("small store %+v, want 4 entries after 1 eviction", s)
	}
	if _, ok := small.Peek(0); ok {
		t.Fatal("the small store's oldest entry survived")
	}
	if s := big.Stats(); s.Entries != 1 || s.Evictions != 0 {
		t.Fatalf("big store %+v, want its entry untouched by the other store's eviction", s)
	}
	// The big store's next entry can only evict its own: the older one goes,
	// and the newest stays although the two stores still exceed the budget.
	if _, _, err := big.Get("b", sized("b", 700)); err != nil {
		t.Fatal(err)
	}
	if s := big.Stats(); s.Entries != 1 || s.Bytes != 700 || s.Evictions != 1 {
		t.Fatalf("big store %+v, want only its newest entry", s)
	}
	if s := small.Stats(); s.Entries != 4 || s.Bytes != 400 {
		t.Fatalf("small store %+v, want it untouched by the other store's eviction", s)
	}
}
