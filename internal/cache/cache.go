// Package cache implements the engine-wide read cache: one byte budget,
// split over independently locked shards, holding two pools of entries —
// SSTable data blocks, published in a slot array their table's reader owns
// (Table), and hot value-log entries keyed by (logNum, offset).
//
// UniKV drops Bloom filters, so a SortedStore point lookup costs exactly
// one table check and one data-block read (paper §Design). Under the
// skewed mixed workloads the paper targets that block read *is* the hot
// path; an in-memory cache over the hot set absorbs it (F2 makes the same
// observation for large skewed workloads, REMIX for repeated ranges). Like
// F2's read cache, a block hit takes no lock — one atomic load of its slot —
// and replacement is second-chance: a hit sets the entry's reference bit,
// and only an evicting Add, under its shard's lock, moves the clock hand.
//
// Correctness notes:
//
//   - Table file numbers and value-log numbers are allocated monotonically
//     and never reused, so a stale entry can never be re-keyed to new
//     data. Invalidation (Table.Close/EvictLog, called when merge/GC/split
//     retire a table or collect a log) exists to reclaim memory promptly
//     and to keep the "no stale entry is ever served" property independent
//     of that allocation detail.
//   - Cached byte slices are immutable. Block-pool entries are only read
//     inside the sstable package (records parsed from them are copied
//     before leaving the engine); value-pool hits are copied before being
//     returned, because vlog.Read hands its buffer to the caller.
package cache

import (
	"sync"
	"sync/atomic"
)

// Pool names a namespace of the keyed surface: values only, a block has no key.
type Pool uint8

// PoolValue holds value-log entries keyed by (logNum, offset).
const PoolValue Pool = 1

// Key identifies one cached value.
type Key struct {
	Pool Pool
	ID   uint64 // value-log number
	Off  uint64 // log offset
}

// entryOverhead approximates the per-entry bookkeeping bytes charged on
// top of the payload (entry + map bucket or slot + key + slice header).
const entryOverhead = 96

// entry is one resident payload.
type entry struct {
	data []byte
	ref  atomic.Uint32          // the second-chance bit: set by a hit, cleared by the hand
	slot *atomic.Pointer[entry] // where a block is published (nil for a value, found by key)
	key  Key
	// prev and next link the shard's clock, under its lock; nil once out of it.
	prev, next *entry
}

// closedSlot fills every slot of a closed Table: a miss no Add can replace.
var closedSlot entry

// shard is one independently locked clock over both pools.
type shard struct {
	mu       sync.Mutex
	capacity int64
	used     atomic.Int64 // written under mu; AddCold reads it without
	entries  int64
	values   map[Key]*entry
	hand     *entry // next entry the sweep looks at; a new one goes in behind it

	valueHits, valueMisses, evictions int64
}

// Stats is a point-in-time copy of the cache counters.
type Stats struct {
	BlockHits, BlockMisses int64
	ValueHits, ValueMisses int64
	Evictions              int64
	Bytes                  int64
	Entries                int64
}

// Cache is shared by every table reader and the value-log manager of one
// DB. The zero value is not usable; call New. A nil *Cache is valid and
// behaves as "always miss, never store".
type Cache struct {
	shards []shard
	mask   uint64

	tmu    sync.Mutex          // guards tables and closed
	tables map[*Table]struct{} // the open ones: each counts its own lookups, without a lock
	closed Stats               // BlockHits and BlockMisses of the closed ones
}

// New returns a cache bounded at capacityBytes, split over nShards
// power-of-two shards (nShards <= 0 picks 16). capacityBytes <= 0 returns
// nil — the disabled cache.
func New(capacityBytes int64, nShards int) *Cache {
	if capacityBytes <= 0 {
		return nil
	}
	if nShards <= 0 {
		nShards = 16
	}
	// Round up to a power of two for mask indexing.
	n := 1
	for n < nShards {
		n <<= 1
	}
	c := &Cache{shards: make([]shard, n), mask: uint64(n - 1), tables: make(map[*Table]struct{})}
	for i := range c.shards {
		c.shards[i].capacity = max(capacityBytes/int64(n), 1)
		c.shards[i].values = make(map[Key]*entry)
	}
	return c
}

// hash mixes a key into a shard index (fmix64 finalizer over the fields).
func (k Key) hash() uint64 {
	h := k.ID*0x9e3779b97f4a7c15 ^ k.Off ^ uint64(k.Pool)<<56
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func (c *Cache) shardFor(k Key) *shard { return &c.shards[k.hash()&c.mask] }

// touch gives e its second chance. The bit is stored only when clear, so
// a block that is hit again and again stays a shared, unwritten line.
func (e *entry) touch() {
	if e.ref.Load() == 0 {
		e.ref.Store(1)
	}
}

// unlink takes e out of the clock and the byte count, once: the sweep, a
// closing table and EvictLog may each get to an entry first.
func (s *shard) unlink(e *entry) {
	if e.next == nil {
		return
	}
	if e.next == e {
		s.hand = nil
	} else if s.hand == e {
		s.hand = e.next
	}
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	s.used.Add(-int64(len(e.data)) - entryOverhead)
	s.entries--
}

// Get returns the value cached under k. The returned slice aliases the
// cache and MUST NOT be modified; callers that pass it onward copy first.
func (c *Cache) Get(k Key) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.values[k]
	if e == nil {
		s.valueMisses++
		return nil, false
	}
	s.valueHits++
	e.touch()
	return e.data, true
}

// Add inserts data under k, evicting by second chance as needed. An entry
// larger than half a shard is not admitted (it would evict the shard for one
// resident). data is retained as-is; the caller must not modify it afterwards.
func (c *Cache) Add(k Key, data []byte) { c.add(k, nil, data, true) }

// AddCold inserts a copy of data under k only if the shard has free space
// for it — unlike Add, it never evicts a resident to make room, and a value
// it turns away is never copied. This is the admission-filter half of the
// hot-ring feedback loop: a point read whose key the ring has not sampled
// twice admits cold, so a pass over rarely-read keys fills spare capacity
// but cannot flush the established hot set out of the cache.
func (c *Cache) AddCold(k Key, data []byte) { c.add(k, nil, data, false) }

// add makes data resident in k's shard, published in slot (a block) or
// under k (a value). A warm add sweeps the clock until data fits; a cold
// one is admitted into free space only, and copies data once it is.
func (c *Cache) add(k Key, slot *atomic.Pointer[entry], data []byte, warm bool) {
	if c == nil {
		return
	}
	charge := int64(len(data)) + entryOverhead
	s := c.shardFor(k)
	full := func() bool { return s.used.Load()+charge > s.capacity }
	if charge > s.capacity/2 || !warm && full() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot != nil && slot.Load() != nil || slot == nil && s.values[k] != nil || !warm && full() {
		return // two racing misses (or a closed table): keep what is there
	}
	for full() && s.hand != nil {
		e := s.hand
		if e.ref.Swap(0) != 0 {
			s.hand = e.next
			continue
		}
		s.unlink(e)
		s.evictions++
		if e.slot != nil {
			e.slot.CompareAndSwap(e, nil) // fails only against a closing table, which owns the slot now
		} else {
			delete(s.values, e.key)
		}
	}
	if !warm {
		data = append([]byte(nil), data...)
	}
	e := &entry{data: data, slot: slot, key: k}
	if slot == nil {
		s.values[k] = e
	} else if !slot.CompareAndSwap(nil, e) {
		return // the table closed under us
	}
	if s.hand == nil {
		s.hand, e.prev, e.next = e, e, e
	}
	e.prev, e.next = s.hand.prev, s.hand // behind the hand: a full round away
	e.prev.next, e.next.prev = e, e
	s.used.Add(charge)
	s.entries++
}

// Table is one table's window on the block pool: a slot per data block,
// owned by the table's reader. A nil *Table always misses and never stores.
type Table struct {
	c            *Cache
	id           uint64
	slots        []atomic.Pointer[entry]
	hits, misses atomic.Int64
}

// NewTable returns the handle for table id (its file number, which the
// engine never reuses) with nBlocks data blocks; nil on a nil cache.
func (c *Cache) NewTable(id uint64, nBlocks int) *Table {
	if c == nil {
		return nil
	}
	t := &Table{c: c, id: id, slots: make([]atomic.Pointer[entry], nBlocks)}
	c.tmu.Lock()
	c.tables[t] = struct{}{}
	c.tmu.Unlock()
	return t
}

// Get returns block i if it is resident: one atomic load, no lock. The
// returned slice aliases the cache and MUST NOT be modified.
func (t *Table) Get(i int) ([]byte, bool) {
	if t == nil {
		return nil, false
	}
	e := t.slots[i].Load()
	if e == nil || e == &closedSlot {
		t.misses.Add(1)
		return nil, false
	}
	t.hits.Add(1)
	e.touch()
	return e.data, true
}

// Add makes data resident as block i, evicting by second chance as needed.
// data is retained as-is; the caller must not modify it afterwards.
func (t *Table) Add(i int, data []byte) {
	if t != nil {
		t.c.add(Key{ID: t.id, Off: uint64(i)}, &t.slots[i], data, true)
	}
}

// Close releases the table's blocks — O(its blocks), whatever else the
// cache holds — and leaves every slot closed: a later Get misses, a later
// Add stores nothing. Its lookup counts pass to the cache. Called when the
// table's last reader closes.
func (t *Table) Close() {
	if t == nil {
		return
	}
	for i := range t.slots {
		if e := t.slots[i].Swap(&closedSlot); e != nil && e != &closedSlot {
			s := t.c.shardFor(Key{ID: t.id, Off: uint64(i)})
			s.mu.Lock()
			s.unlink(e)
			s.mu.Unlock()
		}
	}
	t.c.tmu.Lock()
	delete(t.c.tables, t)
	t.c.closed.BlockHits += t.hits.Swap(0)
	t.c.closed.BlockMisses += t.misses.Swap(0)
	t.c.tmu.Unlock()
}

// EvictLog drops every value cached for log n (GC or the lazy split collected it).
func (c *Cache) EvictLog(n uint32) {
	if c == nil {
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.values {
			if k.ID == uint64(n) {
				delete(s.values, k)
				s.unlink(e)
			}
		}
		s.mu.Unlock()
	}
}

// Snapshot returns a copy of the counters and occupancy gauges.
func (c *Cache) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	c.tmu.Lock()
	st := c.closed
	for t := range c.tables {
		st.BlockHits += t.hits.Load()
		st.BlockMisses += t.misses.Load()
	}
	c.tmu.Unlock()
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.ValueHits += s.valueHits
		st.ValueMisses += s.valueMisses
		st.Evictions += s.evictions
		st.Entries += s.entries
		s.mu.Unlock()
		st.Bytes += s.used.Load()
	}
	return st
}
