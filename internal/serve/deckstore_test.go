package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/matex-sim/matex/internal/job"
	"github.com/matex-sim/matex/internal/memo"
)

// newDeckStore is the server's kind of deck store, bounded to capacity bytes.
func newDeckStore(capacity int64) *memo.Store[string, *job.Deck] {
	return memo.New[string, *job.Deck](memo.NewBudget(capacity))
}

// TestDeckStoreSingleFlight: concurrent first sights of one key run the
// build once; everyone gets the same deck, the waiters count as hits.
func TestDeckStoreSingleFlight(t *testing.T) {
	st := newDeckStore(1 << 20)
	var builds atomic.Int32
	release := make(chan struct{})
	const n = 8
	got := make([]*job.Deck, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, _, err := st.Get("k", func() (*job.Deck, int64, error) {
				builds.Add(1)
				<-release // hold the build open until every caller has arrived
				return &job.Deck{}, 10, nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = d
		}(i)
	}
	for st.Stats().Hits < n-1 {
		runtime.Gosched() // the waiters are counted before they block on the build
	}
	close(release)
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("%d builds for one key, want 1", builds.Load())
	}
	for i := 1; i < n; i++ {
		if got[i] != got[0] || got[i] == nil {
			t.Fatalf("caller %d got a different deck", i)
		}
	}
	if s := st.Stats(); s.Misses != 1 || s.Hits != n-1 || s.Entries != 1 || s.Bytes != 10 {
		t.Fatalf("stats %+v, want 1 miss, %d hits, 1 entry of 10 bytes", s, n-1)
	}
}

// TestDeckStoreByteBoundLRU: the charged bytes stay within the capacity
// after three times the capacity in distinct decks, eviction takes the
// least recently used, an evicted deck stays usable by whoever holds it, and
// a deck larger than the whole store is still served (and is the first to
// go).
func TestDeckStoreByteBoundLRU(t *testing.T) {
	const capacity, size = 1000, 100
	st := newDeckStore(capacity)
	mk := func(key string, size int64) func() (*job.Deck, int64, error) {
		return func() (*job.Deck, int64, error) { return &job.Deck{}, size, nil }
	}
	first, _, err := st.Get("d0", mk("d0", size))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3*capacity/size; i++ {
		key := fmt.Sprintf("d%d", i)
		if _, _, err := st.Get(key, mk(key, size)); err != nil {
			t.Fatal(err)
		}
		// Keep d1 hot: it must outlive everything colder.
		if _, _, err := st.Get("d1", mk("d1", size)); err != nil {
			t.Fatal(err)
		}
		if s := st.Stats(); s.Bytes > capacity || s.Bytes != int64(s.Entries)*size {
			t.Fatalf("after %d decks: %d bytes in %d entries, capacity %d", i+1, s.Bytes, s.Entries, capacity)
		}
	}
	s := st.Stats()
	if s.Entries != capacity/size || s.Evictions != uint64(3*capacity/size-capacity/size) {
		t.Fatalf("stats %+v, want %d entries and %d evictions", s, capacity/size, 3*capacity/size-capacity/size)
	}
	misses := s.Misses
	if _, _, err := st.Get("d1", mk("d1", size)); err != nil || st.Stats().Misses != misses {
		t.Fatalf("the most recently used deck was evicted (err %v)", err)
	}
	again, _, err := st.Get("d0", mk("d0", size))
	if err != nil || st.Stats().Misses != misses+1 {
		t.Fatalf("the least recently used deck was still resident (err %v)", err)
	}
	if again == first {
		t.Fatal("the evicted deck a caller still holds was handed out again")
	}

	// Larger than the store: resident alone while it is the newest.
	if _, _, err := st.Get("huge", mk("huge", 5*capacity)); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Entries != 1 || s.Bytes != 5*capacity {
		t.Fatalf("oversized deck: %+v, want it resident alone", s)
	}
	if _, _, err := st.Get("d2", mk("d2", size)); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Entries != 1 || s.Bytes != size {
		t.Fatalf("after the next deck: %+v, want the oversized one gone", s)
	}
}

// TestDeckStoreFailedBuildIsNotKept: a build error reaches every caller
// waiting on it and leaves nothing behind — the next sight builds again.
func TestDeckStoreFailedBuildIsNotKept(t *testing.T) {
	st := newDeckStore(1000)
	bad := errors.New("bad deck")
	if _, _, err := st.Get("k", func() (*job.Deck, int64, error) { return nil, 0, bad }); !errors.Is(err, bad) {
		t.Fatalf("got %v, want the build error", err)
	}
	if s := st.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("failed build left %+v behind", s)
	}
	d, _, err := st.Get("k", func() (*job.Deck, int64, error) { return &job.Deck{}, 1, nil })
	if err != nil || d == nil {
		t.Fatalf("rebuild after a failure: %v", err)
	}
	if s := st.Stats(); s.Misses != 2 || s.Entries != 1 {
		t.Fatalf("stats %+v, want 2 misses and 1 entry", s)
	}
}

// TestDeckStorePanickingBuildReleasesWaiters: a build that panics takes its
// own caller down, not the callers waiting on it — they get an error, and
// the key is free to be built again.
func TestDeckStorePanickingBuildReleasesWaiters(t *testing.T) {
	st := newDeckStore(1000)
	building := make(chan struct{})
	waiter := make(chan error, 1)
	go func() {
		<-building
		_, _, err := st.Get("k", func() (*job.Deck, int64, error) { return &job.Deck{}, 0, nil })
		waiter <- err
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the build's panic did not reach its caller")
			}
		}()
		st.Get("k", func() (*job.Deck, int64, error) {
			close(building)
			for st.Stats().Hits == 0 {
				runtime.Gosched() // until the waiter is counted, i.e. committed to this build
			}
			panic("malformed deck trips a parser bug")
		})
	}()
	if err := <-waiter; err == nil {
		t.Fatal("a caller waiting on a panicked build got a deck")
	}
	if d, _, err := st.Get("k", func() (*job.Deck, int64, error) { return &job.Deck{}, 1, nil }); err != nil || d == nil {
		t.Fatalf("the key stayed poisoned: %v", err)
	}
}
