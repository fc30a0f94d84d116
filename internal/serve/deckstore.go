package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/dist"
	"github.com/matex-sim/matex/internal/netlist"
	"github.com/matex-sim/matex/internal/pdn"
)

// maxBodyBytes is the one admission bound on a deck: the HTTP layer refuses
// a larger submission body, Submit a longer inline netlist, and the deck
// store's capacity and the journal reader's record limit are derived from
// it — so whatever was accepted also fits the store alone and replays. The
// big IBM decks are tens of megabytes; the limit is generous without being
// unbounded.
const maxBodyBytes = 256 << 20

// ErrDeckMissing marks a journaled job whose spec references a deck the
// journal does not hold (a torn or truncated deck record): the job is
// restored as failed with this error, never run on a guess.
var ErrDeckMissing = errors.New("serve: journaled deck body is missing")

// deck is one input deck as every job on it sees it: the stamped MNA system
// and what JobSpec.build reads off the deck's cards. It is immutable once
// built — jobs, sweep lanes and D-MATEX tasks only read the system — so one
// value serves every job on the same content, concurrently.
type deck struct {
	// key is the content identity: the hex SHA-256 of an inline netlist's
	// text (also the journal's deck hash), or "case:<name>@<scale>" for a
	// pgbench case. A collision would be a silently wrong waveform, hence a
	// cryptographic hash.
	key string
	// size is what the entry is charged against the store's byte bound: the
	// netlist's source bytes, or the matrices' for a generated case.
	size int64

	sys         *circuit.System
	dsys        *dist.System // sys as a distributed job hands it to its pool
	tstop, step float64      // the .tran card (a case has no step)
	prints      []string     // the .print cards (inline decks)
	nx, ny      int          // grid edges, for a case's per-job probe spread
}

// netlistKey is the content hash of an inline deck.
func netlistKey(text string) string {
	h := sha256.New()
	var window [16 << 10]byte // no deck-sized []byte copy of the string per submission
	for len(text) > 0 {
		n := copy(window[:], text)
		h.Write(window[:n]) //matex:err-ok(hash.Hash.Write never returns an error)
		text = text[n:]
	}
	return hex.EncodeToString(h.Sum(nil))
}

// caseKey is the identity of a generated pgbench case.
func caseKey(name string, scale float64) string {
	return fmt.Sprintf("case:%s@%g", name, scaleOrOne(scale))
}

// parseDeck parses and stamps an inline netlist.
func parseDeck(key, text string) (*deck, error) {
	nd, err := netlist.Parse(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	sys, err := nd.Build()
	if err != nil {
		return nil, err
	}
	return &deck{key: key, size: int64(len(text)), sys: sys, dsys: dist.NewSystem(sys),
		tstop: nd.TranStop, step: nd.TranStep, prints: nd.Prints}, nil
}

// generateDeck builds and stamps a pgbench case.
func generateDeck(key, name string, scale float64) (*deck, error) {
	gspec, err := pdn.IBMCase(name, scaleOrOne(scale))
	if err != nil {
		return nil, err
	}
	ckt, err := gspec.Build()
	if err != nil {
		return nil, err
	}
	sys, err := circuit.Stamp(ckt, circuit.StampOptions{CollapseSupplies: true})
	if err != nil {
		return nil, err
	}
	// No source text to count: charge the stored entries (index + value).
	size := int64(sys.C.NNZ()+sys.G.NNZ()) * 16
	return &deck{key: key, size: size, sys: sys, dsys: dist.NewSystem(sys), tstop: gspec.Tstop, nx: gspec.NX, ny: gspec.NY}, nil
}

// DeckStoreStats is the deck store's own view, the deck_store object of
// /stats: resident entries and the bytes they are charged, lookups served
// from the store (Hits, including those that waited for a build in flight)
// against builds (Misses: one parse + stamp each), and entries dropped to
// hold the byte bound.
type DeckStoreStats struct {
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// deckStore is the server's bounded, content-addressed set of decks: one
// parse + stamp per key however many jobs submit it and however many arrive
// at once (the first builds, the rest wait for it), least recently used
// entries dropped once the charged bytes pass the capacity. An evicted deck
// stays alive for the jobs that already hold it. Failed builds are not kept.
type deckStore struct {
	capacity int64

	mu      sync.Mutex
	entries map[string]*deckEntry
	lru     *list.List // resident entries, most recently used first
	stats   DeckStoreStats
}

// deckEntry is one key's slot: ready closes when the build has finished and
// d/err are set; elem is nil until then (a build in flight is not evictable
// and is charged nothing).
type deckEntry struct {
	ready chan struct{}
	d     *deck
	err   error
	elem  *list.Element
}

func newDeckStore(capacity int64) *deckStore {
	return &deckStore{capacity: capacity, entries: make(map[string]*deckEntry), lru: list.New()}
}

// get returns the deck stored under key, building it with build on first
// sight. Concurrent first sights run build once.
func (st *deckStore) get(key string, build func() (*deck, error)) (*deck, error) {
	st.mu.Lock()
	if e, ok := st.entries[key]; ok {
		st.stats.Hits++
		if e.elem != nil {
			st.lru.MoveToFront(e.elem)
		}
		st.mu.Unlock()
		<-e.ready
		return e.d, e.err
	}
	// Until build returns, the entry's outcome is this error: if build panics
	// (the panic goes on to this caller's recover, if any), the waiters are
	// released with it instead of hanging on a key nobody is building.
	e := &deckEntry{ready: make(chan struct{}), err: errors.New("serve: deck build did not finish")}
	st.entries[key] = e
	st.stats.Misses++
	st.mu.Unlock()

	defer func() {
		st.mu.Lock()
		if e.err != nil {
			delete(st.entries, key)
		} else {
			e.elem = st.lru.PushFront(key)
			st.stats.Bytes += e.d.size
			// The newest entry always stays: a deck larger than the whole
			// capacity is still shared by the jobs submitted while it is the
			// most recent one.
			for st.stats.Bytes > st.capacity && st.lru.Len() > 1 {
				k := st.lru.Remove(st.lru.Back()).(string)
				st.stats.Bytes -= st.entries[k].d.size
				delete(st.entries, k)
				st.stats.Evictions++
			}
		}
		st.mu.Unlock()
		close(e.ready)
	}()
	d, err := build()
	e.d, e.err = d, err
	return d, err
}

// snapshot returns the counters.
func (st *deckStore) snapshot() DeckStoreStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.stats
	s.Entries = st.lru.Len()
	return s
}
