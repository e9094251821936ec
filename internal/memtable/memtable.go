// Package memtable implements the in-memory write buffer, in three parts: a
// skiplist of distinct user keys, on each key node a chain of that key's
// versions (newest first), and an open-addressing hash table from key to
// key node. Iteration walks the skiplist and each chain in turn, so records
// come out in (user key ascending, sequence number descending) order, as in
// LevelDB. A point read is one hash probe and a walk down the chain; a Put
// of a key already present is a probe and a prepend, and only a new key
// searches the skiplist. A full memtable is flushed to an SSTable in the
// UnsortedStore. The LSM baselines (internal/lsm, leveled and tiered)
// use the same memtable.
//
// The memtable owns every byte it stores: Put copies the record's key (once
// per distinct key) and value into slabs and cuts nodes, versions and
// towers from slabs too, so a caller's buffers are free the moment Put
// returns and an insert costs a fraction of a heap allocation. Nothing is
// freed individually — the slabs die with the memtable.
package memtable

import (
	"hash/maphash"
	"math/bits"
	"math/rand"
	"sync"

	"unikv/internal/arena"
	"unikv/internal/codec"
	"unikv/internal/record"
)

const (
	maxHeight = 12
	branching = 4

	// nodeChunk nodes, versionChunk overwriting versions and linkChunk
	// tower links (4/3 per node on average at branching 4) are allocated
	// at a time.
	nodeChunk    = 128
	versionChunk = 128
	linkChunk    = 256

	// minSlots is the hash table's starting length; it doubles whenever
	// it would be more than half full.
	minSlots = 64

	// valueChunk caps the value slabs' chunk size. The put that opens a
	// chunk pays for zeroing it, so the cap bounds the write path's tail
	// latency (64 KiB ≈ a few µs, once per ~60 puts of 1 KiB) at the price
	// of values over 16 KiB getting allocations of their own.
	valueChunk = 64 << 10
)

// version is one record of a key; rec.Key is its node's key.
type version struct {
	rec  record.Record
	next *version // the next older version, or nil
}

// node is one distinct key in the skiplist. Its first version lives in the
// node, so a key written once costs one slab cut and a read or an
// iteration step of it touches one place in memory.
type node struct {
	key   []byte
	next  []*node
	vers  *version // newest first: sequence numbers never ascend
	first version
}

var hashSeed = maphash.MakeSeed()

// fingerprint hashes key to the nonzero 32 bits the table stores per slot.
// Its top bits pick the key's home slot, so the table grows without
// rehashing a key.
func fingerprint(key []byte) uint32 {
	return max(uint32(maphash.Bytes(hashSeed, key)>>32), 1)
}

// Memtable is a concurrency-safe ordered store of records. Readers and the
// single writer are serialized with an RWMutex; at the scales this engine
// targets the mutex is never the bottleneck (flushes cap the table at a few
// MiB).
type Memtable struct {
	mu     sync.RWMutex
	head   *node
	height int
	rnd    *rand.Rand
	size   int64
	count  int
	maxSeq uint64

	// The key table, at most half full: a key probes linearly from slot
	// fingerprint >> shift. fps holds each slot's fingerprint (0 = empty),
	// so a probe reads a node only when the fingerprint matches.
	fps   []uint32
	slots []*node
	shift uint
	nkeys int

	// Keys and values live in separate slabs: a skiplist search compares
	// keys only, and packed together they stay cache-resident instead of
	// sitting one value apart.
	keys  arena.Bytes
	vals  arena.Bytes
	nodes []node    // unused tail of the current node slab
	vers  []version // unused tail of the current version slab
	links []*node   // unused tail of the current tower slab
}

// New returns an empty memtable.
func New() *Memtable {
	return &Memtable{
		head:   &node{next: make([]*node, maxHeight)},
		height: 1,
		rnd:    rand.New(rand.NewSource(0xdecafbad)),
		fps:    make([]uint32, minSlots),
		slots:  make([]*node, minSlots),
		shift:  uint(32 - bits.TrailingZeros(minSlots)),
		vals:   arena.New(4<<10, valueChunk),
	}
}

// lookup returns key's node, or nil and the empty slot key would take.
func (m *Memtable) lookup(key []byte, fp uint32) (*node, int) {
	mask := len(m.fps) - 1
	for i := int(fp >> m.shift); ; i = (i + 1) & mask {
		switch f := m.fps[i]; {
		case f == 0:
			return nil, i
		case f == fp && codec.Compare(m.slots[i].key, key) == 0:
			return m.slots[i], i
		}
	}
}

// grow doubles the key table. A key's new home slot is its fingerprint
// shifted one bit less, so only the table's own arrays are read.
func (m *Memtable) grow() {
	fps, slots := m.fps, m.slots
	m.fps = make([]uint32, 2*len(fps))
	m.slots = make([]*node, 2*len(slots))
	m.shift--
	mask := len(m.fps) - 1
	for i, fp := range fps {
		if fp == 0 {
			continue
		}
		j := int(fp >> m.shift)
		for m.fps[j] != 0 {
			j = (j + 1) & mask
		}
		m.fps[j], m.slots[j] = fp, slots[i]
	}
}

func (m *Memtable) randomHeight() int {
	h := 1
	for h < maxHeight && m.rnd.Intn(branching) == 0 {
		h++
	}
	return h
}

// findGE returns the first node whose key is >= key. If prev is not nil it
// receives, per level, the last node before that point.
func (m *Memtable) findGE(key []byte, prev *[maxHeight]*node) *node {
	x := m.head
	for level := m.height - 1; level >= 0; level-- {
		for x.next[level] != nil && codec.Compare(x.next[level].key, key) < 0 {
			x = x.next[level]
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return x.next[0]
}

// insertNode links a node holding a copy of key into the skiplist.
func (m *Memtable) insertNode(key []byte) *node {
	var prev [maxHeight]*node
	m.findGE(key, &prev)
	h := m.randomHeight()
	if h > m.height {
		for level := m.height; level < h; level++ {
			prev[level] = m.head
		}
		m.height = h
	}
	if len(m.nodes) == 0 {
		m.nodes = make([]node, nodeChunk)
	}
	if len(m.links) < h {
		m.links = make([]*node, linkChunk)
	}
	n := &m.nodes[0]
	m.nodes = m.nodes[1:]
	n.key = m.keys.Copy(key)
	n.next = m.links[:h:h]
	m.links = m.links[h:]
	for level := 0; level < h; level++ {
		n.next[level] = prev[level].next[level]
		prev[level].next[level] = n
	}
	return n
}

// Put inserts a copy of r: the caller keeps ownership of r.Key and r.Value
// and may reuse them as soon as Put returns. A key's versions stay ordered
// by sequence, newest first, whatever order they arrive in. A Put whose
// (key, seq) is already present goes ahead of the earlier record: both are
// kept and iterated, and reads see the later one.
func (m *Memtable) Put(r record.Record) {
	fp := fingerprint(r.Key)
	m.mu.Lock()
	defer m.mu.Unlock()

	var v *version
	n, slot := m.lookup(r.Key, fp)
	if n == nil {
		n = m.insertNode(r.Key)
		m.fps[slot], m.slots[slot] = fp, n
		if m.nkeys++; 2*m.nkeys > len(m.fps) {
			m.grow()
		}
		v = &n.first
	} else {
		if len(m.vers) == 0 {
			m.vers = make([]version, versionChunk)
		}
		v = &m.vers[0]
		m.vers = m.vers[1:]
	}
	v.rec = record.Record{Key: n.key, Seq: r.Seq, Kind: r.Kind}
	if len(r.Value) > 0 { // an empty value stays nil
		v.rec.Value = m.vals.Copy(r.Value)
	}
	at := &n.vers
	for *at != nil && (*at).rec.Seq > r.Seq {
		at = &(*at).next
	}
	v.next, *at = *at, v

	m.count++
	m.size += int64(len(r.Key) + len(r.Value) + 32)
	if r.Seq > m.maxSeq {
		m.maxSeq = r.Seq
	}
}

// Get returns the newest record for key, if any. The returned record
// aliases memtable-owned memory; it is immutable while the memtable lives.
func (m *Memtable) Get(key []byte) (record.Record, bool) {
	return m.GetAtSeq(key, ^uint64(0))
}

// GetAtSeq returns the newest record for key whose sequence number is
// <= seq, if any — the MVCC read used by snapshot handles pinned at seq.
// The returned record aliases memtable-owned memory.
func (m *Memtable) GetAtSeq(key []byte, seq uint64) (record.Record, bool) {
	fp := fingerprint(key)
	m.mu.RLock()
	defer m.mu.RUnlock()
	n, _ := m.lookup(key, fp)
	if n == nil {
		return record.Record{}, false
	}
	v := n.vers
	for v != nil && v.rec.Seq > seq {
		v = v.next
	}
	if v == nil {
		return record.Record{}, false
	}
	return v.rec, true
}

// Size returns the approximate memory footprint in bytes.
func (m *Memtable) Size() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.size
}

// Len returns the number of stored records (all versions).
func (m *Memtable) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.count
}

// MaxSeq returns the largest sequence number inserted.
func (m *Memtable) MaxSeq() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.maxSeq
}

// Empty reports whether the memtable holds no records.
func (m *Memtable) Empty() bool { return m.Len() == 0 }

// Iterator walks records in (key asc, seq desc) order. Each positioning
// step takes the table's read lock, and nodes and versions are never
// removed — a Put only links new ones in under the write lock — so
// iteration is safe concurrently with writers; snapshot reads rely on
// this, filtering out records sequenced after their pin.
type Iterator struct {
	m *Memtable
	n *node
	v *version
}

// NewIterator returns an iterator positioned before the first record.
func (m *Memtable) NewIterator() *Iterator {
	return &Iterator{m: m}
}

// Reset repositions the iterator before the first record of m.
func (it *Iterator) Reset(m *Memtable) { *it = Iterator{m: m} }

// at positions the iterator on n's newest version. Requires the read lock.
func (it *Iterator) at(n *node) bool {
	it.n, it.v = n, nil
	if n != nil {
		it.v = n.vers
	}
	return n != nil
}

// First moves to the first record and reports validity.
func (it *Iterator) First() bool {
	it.m.mu.RLock()
	defer it.m.mu.RUnlock()
	return it.at(it.m.head.next[0])
}

// Seek moves to the first record with key >= target (newest version first).
func (it *Iterator) Seek(target []byte) bool {
	it.m.mu.RLock()
	defer it.m.mu.RUnlock()
	return it.at(it.m.findGE(target, nil))
}

// Next advances to the following record and reports validity.
func (it *Iterator) Next() bool {
	if it.v == nil {
		return false
	}
	it.m.mu.RLock()
	defer it.m.mu.RUnlock()
	if it.v.next != nil {
		it.v = it.v.next
		return true
	}
	return it.at(it.n.next[0])
}

// Valid reports whether the iterator is positioned on a record.
func (it *Iterator) Valid() bool { return it.v != nil }

// Record returns the current record. Only valid while Valid() is true.
func (it *Iterator) Record() record.Record { return it.v.rec }
