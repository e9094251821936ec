// Package hotring is the hot-key read layer: a sharded, set-associative hash
// structure that serves the hottest keys of a skewed workload in one probe
// of one set, before the engine's tiered lookup (partition router →
// memtable → hash index → sorted run → value log) is even entered.
//
// The design follows the observation behind HotRing and the F2/FASTER line
// of work: real traffic is zipfian, so a small resident set absorbs most
// reads if it can be served in O(1) without locks. Readers never take a
// lock — resident entries are published through atomic pointers and are
// immutable once published (RCU-style: writers replace, never mutate).
// Per-shard writer mutexes serialize only the mutators (promotion,
// invalidation), which are orders of magnitude rarer than hits.
//
// # Sets and the tag line
//
// A key hashes to a shard and, within it, to a home index; the home index
// names the key's set (home/8), and the key may live in any of the set's 8
// ways. A set keeps its 8 ways' hash tags (the key's 64-bit hash, 0 for an
// empty way) together in one 64-byte line, and its 8 entry pointers on the
// next: a probe reads the tag line, and loads an entry only where a tag
// matches, so a miss usually touches no entry at all.
//
// # What a hit writes
//
// A hit writes no line that another reader's hit writes. The entry's
// frequency saturates at a small cap (a hot entry stops writing it after
// its first few hits), and the hit counter is striped (internal/stripe).
// The miss counters and the sampling clock live in the shard, on a line
// apart from the one its readers load the set and version tables from.
//
// # Where a hit's value goes
//
// AppendGet appends a hit's value to a buffer the caller owns — the engine
// passes a server's response frame, so a served GET copies the value once,
// from the entry into the frame. Get is AppendGet into no buffer: it
// returns a private copy. Entries are immutable, so neither ever hands out
// the entry's own bytes, and Install copies the value it is offered: the
// ring keeps no reference to a caller's buffer.
//
// # Admission and promotion
//
// A miss whose set has an empty way promotes at once: the *next* step of
// that miss carries a promotion token through the slow-path read and
// installs the freshly read value. A miss whose set is full is sampled:
// every sampleEvery-th miss records the key's hash in a small bounded
// candidate table, and a key whose sampled count reaches promoteAfter
// carries a token. Its install is a frequency duel against the set's
// least-frequent way: the challenger must out-count it, and a failed
// challenge halves that way's count (aging), so a shifted hot set converges
// instead of wedging.
//
// # Hollow entries (a written hot key keeps its way)
//
// Recently written keys are the hot ones, so a write does not give up the
// key's way: it swaps in a hollow entry — the same key and frequency, no
// value. A hollow entry never serves a hit. The next miss for its key gets
// a promoting token at once, without sampling, so the first read after the
// write refills the way with the value it reads, through the same
// version-fenced Install as any promotion. The ring thus pays for a write
// on the next read of the key (refill on read), never on the write itself
// (it is not write-through). A hollow entry holds its way like a resident
// one: a challenger must win the frequency duel against it, and a hollow
// key that goes cold is aged out by failed challenges.
//
// # Invalidation protocol (why a stale hit is impossible)
//
// The engine invalidates a key on every write or delete of that key after
// the write is applied and before it is acknowledged. Each home index has a
// version, whichever way holds the key. Invalidation bumps the version of
// the key's home index and hollows the key's entry — under the shard's
// writer mutex. Promotion (refills included) is tagged: the token captures
// the home index's version BEFORE the slow-path read begins, and the
// install re-checks it under the same mutex. The two orders that exist are
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
// fenced exactly like a first promotion. A key sits in at most one way of
// its set (Install replaces the key's own way before it looks for another),
// so hollowing that way leaves no other copy behind.
//
// Background maintenance (merge, scan merge, GC) moves values between
// files but never changes the logical key→value mapping, and entries hold
// materialized values — not file or log pointers — so maintenance cannot
// make an entry stale; a partition split hands a key range to a new
// partition, and the engine empties that range's ways, hollow ones too
// (the range's heat belongs to the new owner — and once shards migrate
// between nodes, the handoff must not leave hits behind).
package hotring

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"unsafe"

	"unikv/internal/stripe"
)

// Config sizes a Ring. The zero value is completed by New.
type Config struct {
	// Entries is the total way count across all shards (rounded up so each
	// shard holds a power-of-two number of 8-way sets). Default 4096.
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
	// carrying promotion tokens into a full set. Default 2.
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

// ways is the set associativity: the number of entries a key may occupy,
// and the number of 8-byte tags in a set's tag line.
const ways = 8

// maxFreq is where a hit stops counting: an entry hit this often is as hot
// as the duel needs to know, and a hot entry's hits then write nothing.
const maxFreq = 15

// entry is one way's occupant. Immutable after publication: mutators
// replace the way's pointer, never the fields (freq is the one exception —
// it is atomic and purely advisory).
type entry struct {
	key   []byte
	value []byte
	// hollow marks the entry a write left behind for its key: it holds
	// the way and the key's frequency but no value, and serves no hit.
	hollow bool
	freq   atomic.Int64
	// twin is a resident entry's hollow counterpart, allocated with it and
	// unpublished until a write of the key swaps it in; nil when hollow.
	twin *entry
}

// newEntry builds a resident entry for key and value, and its hollow twin,
// in two allocations: the entry pair, and one buffer holding key and value.
// The twin shares the key's bytes, so a write allocates nothing; while the
// twin holds the way, the old value's bytes stay allocated beside the key,
// until the key's next read refills the way or another key takes it.
func newEntry(key, value []byte, freq int) *entry {
	kv := make([]byte, len(key)+len(value))
	n := copy(kv, key)
	copy(kv[n:], value)
	pair := new([2]entry)
	e, h := &pair[0], &pair[1]
	e.key, e.value, e.twin = kv[:n:n], kv[n:], h
	e.freq.Store(int64(freq))
	h.key, h.hollow = e.key, true
	return e
}

// set is one 8-way set of a shard: its tag line and its entry pointers,
// each ways long. tags[w] is the hash of the key in way w, or 0 when the
// way is empty; only a writer under writerMu changes a way, storing its
// entry before its tag on an install and clearing the tag before the entry
// on an eviction. A reader that catches a way mid-change finds a tag and an
// entry that disagree, and the key compare turns that into a miss.
type set struct {
	tags  []atomic.Uint64
	slots []atomic.Pointer[entry]
}

// find returns the way of st that holds key, with its entry, or -1.
func (st set) find(tag uint64, key []byte) (int, *entry) {
	for w := range st.tags {
		if st.tags[w].Load() != tag {
			continue
		}
		if e := st.slots[w].Load(); e != nil && bytes.Equal(e.key, key) {
			return w, e
		}
	}
	return -1, nil
}

// maxCandidates bounds each shard's candidate table; at the default 16
// shards that is 1024 tracked keys, plenty above any realistic way count
// per shard. When full, the table is decayed rather than grown.
const maxCandidates = 64

// cacheLine is the padding unit that keeps a shard's miss-written counters
// off the line its readers load the set and version tables from.
const cacheLine = 64

// shard is one independently locked region of the ring. Readers load only
// the tag, entry and version tables (atomics); a miss bumps the counters on
// the line after them; writerMu serializes promotion, invalidation, and the
// candidate table.
type shard struct {
	tags     []atomic.Uint64          // set i's tag line is tags[i*ways:], line-aligned (alignedTags)
	slots    []atomic.Pointer[entry]  // way entries, parallel to tags
	versions []atomic.Uint64          // per home index, bumped on invalidation of a key homed there
	_        [2*cacheLine - 3*24]byte // three 64-bit slice headers fill the rest

	missTick atomic.Uint64 // sampling clock, ticked by BeginMiss
	misses   atomic.Int64  // bumped by every miss
	_        [cacheLine - 16]byte

	// writerMu is the last rank of the engine's documented lock order (held
	// after any core mutex, never while acquiring one; see
	// internal/core/db.go and DESIGN.md §5h).
	writerMu sync.Mutex
	// cand holds sampled miss counts by key hash (under writerMu). Keys
	// whose hashes collide share a count.
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
// fields are read-only after New except hits, which is striped.
type Ring struct {
	shards    []shard
	shardMask uint64
	slotMask  uint64 // per-shard home index mask; a home index's set is home/ways

	maxValue     int
	sampleEvery  uint64
	promoteAfter int

	hits stripe.Counter // bumped by every hit
}

// New builds a Ring for cfg. Entries <= 0 after defaulting is impossible,
// so New never returns nil; callers model "off" with a nil *Ring.
func New(cfg Config) *Ring {
	cfg = cfg.withDefaults()
	nShards := 1
	for nShards < cfg.Shards {
		nShards <<= 1
	}
	perShard := ways
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
		r.shards[i].tags = alignedTags(perShard)
		r.shards[i].slots = make([]atomic.Pointer[entry], perShard)
		r.shards[i].versions = make([]atomic.Uint64, perShard)
		r.shards[i].cand = make(map[uint64]int, maxCandidates)
	}
	return r
}

// alignedTags returns n tags starting on a cache-line boundary, so that
// each set's ways tags fill exactly one line. The allocator's alignment is
// not relied on: the buffer has a line's worth of slack to align within.
func alignedTags(n int) []atomic.Uint64 {
	buf := make([]atomic.Uint64, n+ways-1)
	off := 0
	for uintptr(unsafe.Pointer(&buf[off]))%cacheLine != 0 {
		off++
	}
	return buf[off : off+n : off+n]
}

// hash is a 64-bit hash of key that takes eight bytes per multiply (a
// byte-wise FNV-1a costs one per byte, on every probe) and ends in the
// splitmix64 finalizer, so that the shard (the low bits) and the home
// index (bits 16 and up) both depend on every byte.
func hash(key []byte) uint64 {
	h := uint64(len(key)) * 0x9e3779b97f4a7c15
	for ; len(key) >= 8; key = key[8:] {
		h = (h ^ binary.LittleEndian.Uint64(key)) * 0xbf58476d1ce4e5b9
		h ^= h >> 32
	}
	var tail uint64
	for i, b := range key {
		tail |= uint64(b) << (8 * i)
	}
	h ^= tail
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// tagOf is the tag of a key hash: the hash itself, with 0 (the empty way's
// tag) moved to 1. A tag only filters; the key compare decides.
func tagOf(h uint64) uint64 {
	if h == 0 {
		return 1
	}
	return h
}

// locate splits a key's hash into its shard, its home index (the version
// fence) and its set.
func (r *Ring) locate(h uint64) (*shard, uint64, set) {
	s := &r.shards[h&r.shardMask]
	home := (h >> 16) & r.slotMask
	return s, home, s.set(int(home / ways))
}

// set returns the shard's i-th set.
func (s *shard) set(i int) set {
	lo, hi := i*ways, (i+1)*ways
	return set{tags: s.tags[lo:hi:hi], slots: s.slots[lo:hi:hi]}
}

// Get serves key from the ring if it is resident. The returned slice is a
// private copy: Get is AppendGet into no buffer.
func (r *Ring) Get(key []byte) ([]byte, bool) { return r.AppendGet(nil, key) }

// AppendGet appends key's value to dst if the key is resident, and reports
// whether it was; on a miss dst comes back unchanged. One hash, one tag
// line, and an entry load and key compare per matching tag. A hollow entry
// is a miss. The ring keeps no reference to dst.
func (r *Ring) AppendGet(dst, key []byte) ([]byte, bool) {
	if r == nil {
		return dst, false
	}
	h := hash(key)
	s, _, st := r.locate(h)
	_, e := st.find(tagOf(h), key)
	if e == nil || e.hollow {
		s.misses.Add(1)
		return dst, false
	}
	if e.freq.Load() < maxFreq {
		e.freq.Add(1)
	}
	r.hits.Add(1)
	return append(dst, e.value...), true
}

// Token carries a miss's promotion state through the slow-path read. The
// zero Token never promotes (and is what a nil Ring hands out).
type Token struct {
	// Promote is set when the key's set has an empty way, its sampled
	// frequency crossed the promotion threshold, or its set holds its
	// hollow entry: the caller should offer the value it reads to Install.
	Promote bool
	// Warm is set when the key has been sampled before, or holds a hollow
	// entry — the cache admission hint (a warm key's value is worth
	// keeping resident even if it has not yet earned a ring way).
	Warm bool
	// version is the key's home index version before the slow-path read
	// began; Install re-checks it so a concurrent write aborts the
	// promotion.
	version uint64
	// freq is the count backing a promotion duel.
	freq int
}

// BeginMiss records a miss for key and returns the token the caller
// threads through its slow-path read. Must be called BEFORE the slow-path
// lookup reads any engine state: the token's version fence is what makes a
// later Install safe. A key whose set holds its hollow entry is promoted
// at once, without sampling: its next read refills the way. So is a key
// whose set has an empty way; the miss is still sampled, for Warm.
func (r *Ring) BeginMiss(key []byte) Token {
	if r == nil {
		return Token{}
	}
	h := hash(key)
	s, home, st := r.locate(h)
	tok := Token{version: s.versions[home].Load()}
	tag := tagOf(h)
	for w := range st.tags {
		switch st.tags[w].Load() {
		case 0:
			tok.Promote, tok.freq = true, 1
		case tag:
			if e := st.slots[w].Load(); e != nil && e.hollow && bytes.Equal(e.key, key) {
				tok.Promote, tok.Warm, tok.freq = true, true, int(e.freq.Load())
				return tok
			}
		}
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
	c := s.cand[h]
	tok.freq = max(tok.freq, c)
	tok.Warm = c >= 2
	tok.Promote = tok.Promote || c >= r.promoteAfter
	s.writerMu.Unlock()
	return tok
}

// Install publishes value for key if the promotion is still safe (no
// invalidation hit the key's home index since tok was taken) and the key
// wins a way: its own (a refill, or a key another miss installed first),
// an empty one, or the set's least-frequent way by a frequency duel.
// value must be the result of the slow-path read that tok was threaded
// through; it is copied. Reports whether the entry was installed.
func (r *Ring) Install(tok Token, key, value []byte) bool {
	if r == nil || !tok.Promote || len(value) > r.maxValue {
		return false
	}
	h := hash(key)
	s, home, st := r.locate(h)
	tag := tagOf(h)
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	if s.versions[home].Load() != tok.version {
		return false // a write raced the slow-path read; its value may be stale
	}
	w, _ := st.find(tag, key)
	if w < 0 {
		w = st.victim()
		// A hollow resident defends its way like any other; losing ages
		// the resident so a shifted hot set eventually displaces it.
		if cur := st.slots[w].Load(); cur != nil && int64(tok.freq) <= cur.freq.Load() {
			cur.freq.Store(cur.freq.Load() / 2)
			return false
		}
	}
	e := newEntry(key, value, tok.freq)
	s.accountReplace(st.slots[w].Swap(e), e)
	st.tags[w].Store(tag)
	s.promotions.Add(1)
	delete(s.cand, h)
	return true
}

// victim returns the way a new key takes: the first empty way, else the
// least-frequent one. Requires writerMu.
func (st set) victim() int {
	v, vf := 0, int64(-1)
	for w := range st.slots {
		cur := st.slots[w].Load()
		if cur == nil {
			return w
		}
		if f := cur.freq.Load(); vf < 0 || f < vf {
			v, vf = w, f
		}
	}
	return v
}

// Invalidate hollows key's resident entry (if any) and bumps its home
// index's version so any in-flight promotion of a concurrently read value
// aborts. The hollow entry keeps the way and the key's frequency but serves
// no hit; the key's next read refills it. The engine calls Invalidate after
// applying a write or delete of key, before acknowledging it.
func (r *Ring) Invalidate(key []byte) {
	if r == nil {
		return
	}
	h := hash(key)
	s, home, st := r.locate(h)
	s.writerMu.Lock()
	s.versions[home].Add(1)
	if w, cur := st.find(tagOf(h), key); cur != nil && !cur.hollow {
		hollow := cur.twin
		hollow.freq.Store(cur.freq.Load())
		s.accountReplace(st.slots[w].Swap(hollow), hollow)
		s.invalidations.Add(1)
	}
	s.writerMu.Unlock()
}

// InvalidateRange empties every way whose entry, resident or hollow, has
// lower <= key < upper (nil upper = +inf), bumping the version of each
// emptied key's home index. The engine calls it when a partition split
// hands [lower, upper) to a new partition: the range's heat belongs to the
// new owner, and once shards migrate between nodes a handoff must not leave
// hits behind.
func (r *Ring) InvalidateRange(lower, upper []byte) {
	if r == nil {
		return
	}
	for i := range r.shards {
		s := &r.shards[i]
		s.writerMu.Lock()
		for si := 0; si < len(s.slots)/ways; si++ {
			st := s.set(si)
			for w := range st.slots {
				cur := st.slots[w].Load()
				if cur == nil {
					continue
				}
				if bytes.Compare(cur.key, lower) < 0 {
					continue
				}
				if upper != nil && bytes.Compare(cur.key, upper) >= 0 {
					continue
				}
				s.versions[(hash(cur.key)>>16)&r.slotMask].Add(1)
				st.tags[w].Store(0)
				s.accountReplace(st.slots[w].Swap(nil), nil)
				if !cur.hollow {
					s.invalidations.Add(1)
				}
			}
		}
		s.writerMu.Unlock()
	}
}

// accountReplace maintains the residency gauges across a way swap; a
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
	st.Hits = r.hits.Load()
	for i := range r.shards {
		s := &r.shards[i]
		st.Misses += s.misses.Load()
		st.Promotions += s.promotions.Load()
		st.Invalidations += s.invalidations.Load()
		st.Resident += s.resident.Load()
		st.ResidentBytes += s.residentBytes.Load()
	}
	return st
}
