// Package hotring is the hot-key read layer: a sharded, direct-mapped hash
// structure that serves the hottest keys of a skewed workload in a single
// memory probe, before the engine's tiered lookup (partition router →
// memtable → hash index → sorted run → value log) is even entered.
//
// The design follows the observation behind HotRing and the F2/FASTER line
// of work: real traffic is zipfian, so a small resident set absorbs most
// reads if it can be served in O(1) without locks. Readers never take a
// lock — resident entries are published through atomic pointers and are
// immutable once published (RCU-style: writers replace, never mutate).
// Per-shard writer mutexes serialize only the mutators (promotion,
// invalidation), which are orders of magnitude rarer than hits. A probe
// writes nothing shared by the whole ring: its counters live in the
// shard, each on a cache line of its own.
//
// # Frequency tracking and promotion
//
// Every miss ticks a per-shard sampled counter; every sampleEvery-th miss
// records the key's hash in a small bounded candidate table. A key whose
// sampled count reaches promoteAfter is promoted: the *next* miss for it
// carries a promotion token through the slow-path read and installs the
// freshly read value. Slots are direct-mapped (hash → one slot), so a
// promotion into an occupied slot is a frequency duel: the challenger must
// out-count the resident, and a failed challenge halves the resident's
// count (aging), so a shifted hot set converges instead of wedging.
//
// # Hollow entries (a written hot key keeps its slot)
//
// Recently written keys are the hot ones, so a write does not give up the
// key's slot: it swaps in a hollow entry — the same key and frequency, no
// value. A hollow entry never serves a hit. The next miss for its key gets
// a promoting token at once, without sampling, so the first read after the
// write refills the slot with the value it reads, through the same
// version-fenced Install as any promotion. The ring thus pays for a write
// on the next read of the key (refill on read), never on the write itself
// (it is not write-through). A hollow entry holds its slot like a resident
// one: a challenger must win the frequency duel against it, and a hollow
// key that goes cold is aged out by failed challenges.
//
// # Invalidation protocol (why a stale hit is impossible)
//
// The engine invalidates a key on every write or delete of that key after
// the write is applied and before it is acknowledged. Invalidation bumps
// the key's slot version and hollows the key's entry — under the shard's
// writer mutex. Promotion (refills included) is tagged: the token captures
// the slot version BEFORE the slow-path read begins, and the install
// re-checks it under the same mutex. The two orders that exist are
// therefore both safe:
//
//   - invalidation before install: the version changed, the install aborts;
//   - install before invalidation: the invalidation hollows the entry.
//
// If the version still matches at install time, the bump (and hence the
// conflicting write's apply, which happens-before its invalidation) had
// not happened when the token was taken, so the slow-path read — which
// starts after the token — ran strictly before or after the write, and a
// racing write's invalidation lands after the install and hollows it. A
// hollow entry carries no value, so it cannot be stale; what refills it is
// fenced exactly like a first promotion.
//
// Background maintenance (merge, scan merge, GC) moves values between
// files but never changes the logical key→value mapping, and entries hold
// materialized values — not file or log pointers — so maintenance cannot
// make an entry stale; a partition split hands a key range to a new
// partition, and the engine empties that range's slots, hollow ones too
// (the range's heat belongs to the new owner — and once shards migrate
// between nodes, the handoff must not leave hits behind).
package hotring

import (
	"bytes"
	"sync"
	"sync/atomic"
)

// Config sizes a Ring. The zero value is completed by New.
type Config struct {
	// Entries is the total slot count across all shards (rounded up so
	// each shard holds a power-of-two number of slots). Default 4096.
	Entries int
	// Shards is the number of independently locked shards. Default 16,
	// rounded up to a power of two.
	Shards int
	// MaxValue is the largest value (bytes) admitted to the ring; larger
	// values always take the slow path. Default 4096.
	MaxValue int
	// SampleEvery is the miss-sampling period: every SampleEvery-th miss
	// in a shard records its key in the candidate table. Default 8.
	SampleEvery int
	// PromoteAfter is the sampled count at which a candidate key starts
	// carrying promotion tokens. Default 2.
	PromoteAfter int
}

func (c Config) withDefaults() Config {
	if c.Entries <= 0 {
		c.Entries = 4096
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.MaxValue <= 0 {
		c.MaxValue = 4096
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 8
	}
	if c.PromoteAfter <= 0 {
		c.PromoteAfter = 2
	}
	return c
}

// entry is one slot's occupant. Immutable after publication: mutators
// replace the slot pointer, never the fields (freq is the one exception —
// it is atomic and purely advisory).
type entry struct {
	key   []byte
	value []byte
	// hollow marks the entry a write left behind for its key: it holds
	// the slot and the key's frequency but no value, and serves no hit.
	hollow bool
	freq   atomic.Int64
}

// maxCandidates bounds each shard's candidate table; at the default 16
// shards that is 1024 tracked keys, plenty above any realistic slot count
// per shard. When full, the table is decayed rather than grown.
const maxCandidates = 64

// cacheLine is the padding unit that keeps a shard's probe-written
// counters off the line its readers load the slot tables from.
const cacheLine = 64

// shard is one independently locked region of the ring. Readers load only
// slots and versions (atomics) and bump their own line's counters;
// writerMu serializes promotion, invalidation, and the candidate table.
type shard struct {
	slots    []atomic.Pointer[entry]
	versions []atomic.Uint64        // bumped on invalidation of the slot
	_        [cacheLine - 2*24]byte // two 64-bit slice headers fill the rest

	hits atomic.Int64 // bumped by every hit
	_    [cacheLine - 8]byte

	missTick atomic.Uint64 // sampling clock, ticked by BeginMiss
	misses   atomic.Int64  // bumped by every miss
	_        [cacheLine - 16]byte

	// writerMu is the last rank of the engine's documented lock order (held
	// after any core mutex, never while acquiring one; see
	// internal/core/db.go and DESIGN.md §5h).
	writerMu sync.Mutex
	// cand holds sampled miss counts by key hash (under writerMu). Keys
	// whose hashes collide share a count; they also share a slot.
	cand map[uint64]int

	// Written under writerMu, read lock-free by Snapshot.
	promotions    atomic.Int64
	invalidations atomic.Int64
	resident      atomic.Int64
	residentBytes atomic.Int64
	_             [cacheLine - 48]byte // the writer fields above are 48 bytes
}

// Ring is the hot-key layer shared by one DB. A nil *Ring is valid and
// behaves as "always miss, never promote" — the disabled state. Its own
// fields are read-only after New; every counter lives in a shard.
type Ring struct {
	shards    []shard
	shardMask uint64
	slotMask  uint64 // per-shard slot index mask

	maxValue     int
	sampleEvery  uint64
	promoteAfter int
}

// New builds a Ring for cfg. Entries <= 0 after defaulting is impossible,
// so New never returns nil; callers model "off" with a nil *Ring.
func New(cfg Config) *Ring {
	cfg = cfg.withDefaults()
	nShards := 1
	for nShards < cfg.Shards {
		nShards <<= 1
	}
	perShard := 1
	for perShard*nShards < cfg.Entries {
		perShard <<= 1
	}
	r := &Ring{
		shards:       make([]shard, nShards),
		shardMask:    uint64(nShards - 1),
		slotMask:     uint64(perShard - 1),
		maxValue:     cfg.MaxValue,
		sampleEvery:  uint64(cfg.SampleEvery),
		promoteAfter: cfg.PromoteAfter,
	}
	for i := range r.shards {
		r.shards[i].slots = make([]atomic.Pointer[entry], perShard)
		r.shards[i].versions = make([]atomic.Uint64, perShard)
		r.shards[i].cand = make(map[uint64]int, maxCandidates)
	}
	return r
}

// hash is the 64-bit FNV-1a of key (inlined; this is the single probe's
// only arithmetic).
func hash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// locate splits a key's hash into its shard and slot index.
func (r *Ring) locate(h uint64) (*shard, uint64) {
	return &r.shards[h&r.shardMask], (h >> 16) & r.slotMask
}

// Get serves key from the ring if it is resident. The returned slice is a
// private copy. This is the single-probe fast path: one hash, one atomic
// load, one key compare. A hollow entry is a miss.
func (r *Ring) Get(key []byte) ([]byte, bool) {
	if r == nil {
		return nil, false
	}
	s, slot := r.locate(hash(key))
	e := s.slots[slot].Load()
	if e == nil || e.hollow || !bytes.Equal(e.key, key) {
		s.misses.Add(1)
		return nil, false
	}
	e.freq.Add(1)
	s.hits.Add(1)
	return append([]byte(nil), e.value...), true
}

// Token carries a miss's promotion state through the slow-path read. The
// zero Token never promotes (and is what a nil Ring hands out).
type Token struct {
	// Promote is set when the key's sampled frequency crossed the
	// promotion threshold, or its slot holds its hollow entry: the caller
	// should offer the value it reads to Install.
	Promote bool
	// Warm is set when the key has been sampled before, or holds a hollow
	// entry — the cache admission hint (a warm key's value is worth
	// keeping resident even if it has not yet earned a ring slot).
	Warm bool
	// version is the key's slot version before the slow-path read began;
	// Install re-checks it so a concurrent write aborts the promotion.
	version uint64
	// freq is the sampled count backing a promotion duel.
	freq int
}

// BeginMiss records a miss for key and returns the token the caller
// threads through its slow-path read. Must be called BEFORE the slow-path
// lookup reads any engine state: the token's version fence is what makes a
// later Install safe. A key whose slot holds its hollow entry is promoted
// at once, without sampling: its next read refills the slot.
func (r *Ring) BeginMiss(key []byte) Token {
	if r == nil {
		return Token{}
	}
	h := hash(key)
	s, slot := r.locate(h)
	tok := Token{version: s.versions[slot].Load()}
	if e := s.slots[slot].Load(); e != nil && e.hollow && bytes.Equal(e.key, key) {
		tok.Promote, tok.Warm, tok.freq = true, true, int(e.freq.Load())
		return tok
	}
	if s.missTick.Add(1)%r.sampleEvery != 0 {
		return tok
	}
	s.writerMu.Lock()
	if len(s.cand) >= maxCandidates {
		// Decay instead of evicting: halve every count, drop the cold.
		for k, c := range s.cand {
			if c /= 2; c == 0 {
				delete(s.cand, k)
			} else {
				s.cand[k] = c
			}
		}
	}
	s.cand[h]++
	tok.freq = s.cand[h]
	tok.Warm = tok.freq >= 2
	tok.Promote = tok.freq >= r.promoteAfter
	s.writerMu.Unlock()
	return tok
}

// Install publishes value for key if the promotion is still safe (no
// invalidation hit the slot since tok was taken) and the key wins its
// slot. value must be the result of the slow-path read that tok was
// threaded through; it is copied. Reports whether the entry was installed.
// A refill of the key's own hollow entry fights no duel.
func (r *Ring) Install(tok Token, key, value []byte) bool {
	if r == nil || !tok.Promote || len(value) > r.maxValue {
		return false
	}
	h := hash(key)
	s, slot := r.locate(h)
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	if s.versions[slot].Load() != tok.version {
		return false // a write raced the slow-path read; its value may be stale
	}
	if cur := s.slots[slot].Load(); cur != nil && !bytes.Equal(cur.key, key) {
		// Frequency duel for the slot (a hollow resident defends it like
		// any other); losing ages the resident so a shifted hot set
		// eventually displaces it.
		if int64(tok.freq) <= cur.freq.Load() {
			cur.freq.Store(cur.freq.Load() / 2)
			return false
		}
	}
	e := &entry{
		key:   append([]byte(nil), key...),
		value: append([]byte(nil), value...),
	}
	e.freq.Store(int64(tok.freq))
	s.accountReplace(s.slots[slot].Swap(e), e)
	s.promotions.Add(1)
	delete(s.cand, h)
	return true
}

// Invalidate hollows key's resident entry (if any) and bumps its slot
// version so any in-flight promotion of a concurrently read value aborts.
// The hollow entry keeps the slot and the key's frequency but serves no
// hit; the key's next read refills it. The engine calls Invalidate after
// applying a write or delete of key, before acknowledging it.
func (r *Ring) Invalidate(key []byte) {
	if r == nil {
		return
	}
	s, slot := r.locate(hash(key))
	s.writerMu.Lock()
	s.versions[slot].Add(1)
	if cur := s.slots[slot].Load(); cur != nil && !cur.hollow && bytes.Equal(cur.key, key) {
		hollow := &entry{key: cur.key, hollow: true}
		hollow.freq.Store(cur.freq.Load())
		s.accountReplace(s.slots[slot].Swap(hollow), hollow)
		s.invalidations.Add(1)
	}
	s.writerMu.Unlock()
}

// InvalidateRange empties every slot whose entry, resident or hollow, has
// lower <= key < upper (nil upper = +inf), bumping each emptied slot's
// version. The engine calls it when a partition split hands [lower, upper)
// to a new partition: the range's heat belongs to the new owner, and once
// shards migrate between nodes a handoff must not leave hits behind.
func (r *Ring) InvalidateRange(lower, upper []byte) {
	if r == nil {
		return
	}
	for i := range r.shards {
		s := &r.shards[i]
		s.writerMu.Lock()
		for slot := range s.slots {
			cur := s.slots[slot].Load()
			if cur == nil {
				continue
			}
			if bytes.Compare(cur.key, lower) < 0 {
				continue
			}
			if upper != nil && bytes.Compare(cur.key, upper) >= 0 {
				continue
			}
			s.versions[slot].Add(1)
			s.accountReplace(s.slots[slot].Swap(nil), nil)
			if !cur.hollow {
				s.invalidations.Add(1)
			}
		}
		s.writerMu.Unlock()
	}
}

// accountReplace maintains the residency gauges across a slot swap; a
// hollow entry holds no value and is not resident. Requires writerMu.
func (s *shard) accountReplace(old, new *entry) {
	if old != nil && !old.hollow {
		s.resident.Add(-1)
		s.residentBytes.Add(-int64(len(old.key) + len(old.value)))
	}
	if new != nil && !new.hollow {
		s.resident.Add(1)
		s.residentBytes.Add(int64(len(new.key) + len(new.value)))
	}
}

// Stats is a point-in-time copy of the ring counters and gauges. A refill
// of a hollow entry counts as a promotion; an invalidation is a resident
// value dropped by a write or a split.
type Stats struct {
	Hits, Misses  int64
	Promotions    int64
	Invalidations int64
	Resident      int64
	ResidentBytes int64
}

// Snapshot sums the shards' counters; a nil Ring reports zeros.
func (r *Ring) Snapshot() Stats {
	var st Stats
	if r == nil {
		return st
	}
	for i := range r.shards {
		s := &r.shards[i]
		st.Hits += s.hits.Load()
		st.Misses += s.misses.Load()
		st.Promotions += s.promotions.Load()
		st.Invalidations += s.invalidations.Load()
		st.Resident += s.resident.Load()
		st.ResidentBytes += s.residentBytes.Load()
	}
	return st
}
