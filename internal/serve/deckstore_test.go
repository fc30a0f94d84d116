package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDeckStoreSingleFlight: concurrent first sights of one key run the
// build once; everyone gets the same deck, the waiters count as hits.
func TestDeckStoreSingleFlight(t *testing.T) {
	st := newDeckStore(1 << 20)
	var builds atomic.Int32
	release := make(chan struct{})
	const n = 8
	got := make([]*deck, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := st.get("k", func() (*deck, error) {
				builds.Add(1)
				<-release // hold the build open until every caller has arrived
				return &deck{key: "k", size: 10}, nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = d
		}(i)
	}
	for st.snapshot().Hits < n-1 {
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
	if s := st.snapshot(); s.Misses != 1 || s.Hits != n-1 || s.Entries != 1 || s.Bytes != 10 {
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
	mk := func(key string, size int64) func() (*deck, error) {
		return func() (*deck, error) { return &deck{key: key, size: size}, nil }
	}
	first, err := st.get("d0", mk("d0", size))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3*capacity/size; i++ {
		key := fmt.Sprintf("d%d", i)
		if _, err := st.get(key, mk(key, size)); err != nil {
			t.Fatal(err)
		}
		// Keep d1 hot: it must outlive everything colder.
		if _, err := st.get("d1", mk("d1", size)); err != nil {
			t.Fatal(err)
		}
		if s := st.snapshot(); s.Bytes > capacity || s.Bytes != int64(s.Entries)*size {
			t.Fatalf("after %d decks: %d bytes in %d entries, capacity %d", i+1, s.Bytes, s.Entries, capacity)
		}
	}
	s := st.snapshot()
	if s.Entries != capacity/size || s.Evictions != uint64(3*capacity/size-capacity/size) {
		t.Fatalf("stats %+v, want %d entries and %d evictions", s, capacity/size, 3*capacity/size-capacity/size)
	}
	if first.key != "d0" || first.size != size {
		t.Fatalf("the evicted deck a caller still holds changed: %+v", first)
	}
	misses := s.Misses
	if _, err := st.get("d1", mk("d1", size)); err != nil || st.snapshot().Misses != misses {
		t.Fatalf("the most recently used deck was evicted (err %v)", err)
	}
	if _, err := st.get("d0", mk("d0", size)); err != nil || st.snapshot().Misses != misses+1 {
		t.Fatalf("the least recently used deck was still resident (err %v)", err)
	}

	// Larger than the store: resident alone while it is the newest.
	if _, err := st.get("huge", mk("huge", 5*capacity)); err != nil {
		t.Fatal(err)
	}
	if s := st.snapshot(); s.Entries != 1 || s.Bytes != 5*capacity {
		t.Fatalf("oversized deck: %+v, want it resident alone", s)
	}
	if _, err := st.get("d2", mk("d2", size)); err != nil {
		t.Fatal(err)
	}
	if s := st.snapshot(); s.Entries != 1 || s.Bytes != size {
		t.Fatalf("after the next deck: %+v, want the oversized one gone", s)
	}
}

// TestDeckStoreFailedBuildIsNotKept: a build error reaches every caller
// waiting on it and leaves nothing behind — the next sight builds again.
func TestDeckStoreFailedBuildIsNotKept(t *testing.T) {
	st := newDeckStore(1000)
	bad := errors.New("bad deck")
	if _, err := st.get("k", func() (*deck, error) { return nil, bad }); !errors.Is(err, bad) {
		t.Fatalf("got %v, want the build error", err)
	}
	if s := st.snapshot(); s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("failed build left %+v behind", s)
	}
	d, err := st.get("k", func() (*deck, error) { return &deck{key: "k", size: 1}, nil })
	if err != nil || d == nil {
		t.Fatalf("rebuild after a failure: %v", err)
	}
	if s := st.snapshot(); s.Misses != 2 || s.Entries != 1 {
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
		_, err := st.get("k", func() (*deck, error) { return &deck{key: "k"}, nil })
		waiter <- err
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the build's panic did not reach its caller")
			}
		}()
		st.get("k", func() (*deck, error) {
			close(building)
			for st.snapshot().Hits == 0 {
				runtime.Gosched() // until the waiter is counted, i.e. committed to this build
			}
			panic("malformed deck trips a parser bug")
		})
	}()
	if err := <-waiter; err == nil {
		t.Fatal("a caller waiting on a panicked build got a deck")
	}
	if d, err := st.get("k", func() (*deck, error) { return &deck{key: "k", size: 1}, nil }); err != nil || d == nil {
		t.Fatalf("the key stayed poisoned: %v", err)
	}
}
