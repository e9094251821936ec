// Package memtable implements the in-memory write buffer: a skiplist keyed
// by (user key ascending, sequence number descending), as in LevelDB. A full
// memtable is flushed to an SSTable in the UnsortedStore.
//
// The memtable owns every byte it stores: Put copies the record's key and
// value into slabs and cuts nodes and towers from slabs too, so a caller's
// buffers are free the moment Put returns and an insert costs a fraction
// of a heap allocation. Nothing is freed individually — the slabs die with
// the memtable.
package memtable

import (
	"math/rand"
	"sync"

	"unikv/internal/arena"
	"unikv/internal/codec"
	"unikv/internal/record"
)

const (
	maxHeight = 12
	branching = 4

	// nodeChunk nodes (and linkChunk tower links, 4/3 per node on average
	// at branching 4) are allocated at a time.
	nodeChunk = 128
	linkChunk = 256

	// valueChunk caps the value slabs' chunk size. The put that opens a
	// chunk pays for zeroing it, so the cap bounds the write path's tail
	// latency (64 KiB ≈ a few µs, once per ~60 puts of 1 KiB) at the price
	// of values over 16 KiB getting allocations of their own.
	valueChunk = 64 << 10
)

type node struct {
	rec  record.Record
	next []*node
}

// Memtable is a concurrency-safe skiplist of records. Readers and the
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

	// Keys and values live in separate slabs: a skiplist search compares
	// keys only, and packed together they stay cache-resident instead of
	// sitting one value apart.
	keys  arena.Bytes
	vals  arena.Bytes
	nodes []node  // unused tail of the current node slab
	links []*node // unused tail of the current tower slab
}

// New returns an empty memtable.
func New() *Memtable {
	return &Memtable{
		head:   &node{next: make([]*node, maxHeight)},
		height: 1,
		rnd:    rand.New(rand.NewSource(0xdecafbad)),
		vals:   arena.New(4<<10, valueChunk),
	}
}

// compare orders by key ascending then sequence descending, so the newest
// version of a key sorts first among its versions.
func compare(aKey []byte, aSeq uint64, bKey []byte, bSeq uint64) int {
	if c := codec.Compare(aKey, bKey); c != 0 {
		return c
	}
	switch {
	case aSeq > bSeq:
		return -1
	case aSeq < bSeq:
		return 1
	}
	return 0
}

func (m *Memtable) randomHeight() int {
	h := 1
	for h < maxHeight && m.rnd.Intn(branching) == 0 {
		h++
	}
	return h
}

// newNode cuts a node with an h-link tower from the slabs.
func (m *Memtable) newNode(h int) *node {
	if len(m.nodes) == 0 {
		m.nodes = make([]node, nodeChunk)
	}
	if len(m.links) < h {
		m.links = make([]*node, linkChunk)
	}
	n := &m.nodes[0]
	m.nodes = m.nodes[1:]
	n.next = m.links[:h:h]
	m.links = m.links[h:]
	return n
}

// Put inserts a copy of r: the caller keeps ownership of r.Key and r.Value
// and may reuse them as soon as Put returns. Records with equal (key, seq)
// replace each other, which cannot occur in normal operation since
// sequences are unique.
func (m *Memtable) Put(r record.Record) {
	m.mu.Lock()
	defer m.mu.Unlock()

	var prev [maxHeight]*node
	x := m.head
	for level := m.height - 1; level >= 0; level-- {
		for x.next[level] != nil && compare(x.next[level].rec.Key, x.next[level].rec.Seq, r.Key, r.Seq) < 0 {
			x = x.next[level]
		}
		prev[level] = x
	}

	h := m.randomHeight()
	if h > m.height {
		for level := m.height; level < h; level++ {
			prev[level] = m.head
		}
		m.height = h
	}

	n := m.newNode(h)
	n.rec = record.Record{Key: m.keys.Copy(r.Key), Seq: r.Seq, Kind: r.Kind}
	if len(r.Value) > 0 { // an empty value stays nil
		n.rec.Value = m.vals.Copy(r.Value)
	}
	for level := 0; level < h; level++ {
		n.next[level] = prev[level].next[level]
		prev[level].next[level] = n
	}
	m.count++
	m.size += int64(len(r.Key) + len(r.Value) + 32)
	if r.Seq > m.maxSeq {
		m.maxSeq = r.Seq
	}
}

// findGE returns the first node whose (key, seq) is >= (key, seq) in
// skiplist order. With seq = ^uint64(0) this is the newest version of key
// (or the first node of a later key).
func (m *Memtable) findGE(key []byte, seq uint64) *node {
	x := m.head
	for level := m.height - 1; level >= 0; level-- {
		for x.next[level] != nil && compare(x.next[level].rec.Key, x.next[level].rec.Seq, key, seq) < 0 {
			x = x.next[level]
		}
	}
	return x.next[0]
}

// Get returns the newest record for key, if any. The returned record
// aliases memtable-owned memory; it is immutable while the memtable lives.
func (m *Memtable) Get(key []byte) (record.Record, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := m.findGE(key, ^uint64(0))
	if n == nil || codec.Compare(n.rec.Key, key) != 0 {
		return record.Record{}, false
	}
	return n.rec, true
}

// GetAtSeq returns the newest record for key whose sequence number is
// <= seq, if any — the MVCC read used by snapshot handles pinned at seq.
// The returned record aliases memtable-owned memory.
func (m *Memtable) GetAtSeq(key []byte, seq uint64) (record.Record, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := m.findGE(key, seq)
	if n == nil || codec.Compare(n.rec.Key, key) != 0 {
		return record.Record{}, false
	}
	return n.rec, true
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
// step takes the table's read lock, and inserted nodes are never removed
// or mutated, so iteration is safe concurrently with writers — snapshot
// reads rely on this, filtering out records sequenced after their pin.
type Iterator struct {
	m *Memtable
	n *node
}

// NewIterator returns an iterator positioned before the first record.
func (m *Memtable) NewIterator() *Iterator {
	return &Iterator{m: m}
}

// Reset repositions the iterator before the first record of m.
func (it *Iterator) Reset(m *Memtable) { *it = Iterator{m: m} }

// First moves to the first record and reports validity.
func (it *Iterator) First() bool {
	it.m.mu.RLock()
	it.n = it.m.head.next[0]
	it.m.mu.RUnlock()
	return it.n != nil
}

// Seek moves to the first record with key >= target (newest version first).
func (it *Iterator) Seek(target []byte) bool {
	it.m.mu.RLock()
	it.n = it.m.findGE(target, ^uint64(0))
	it.m.mu.RUnlock()
	return it.n != nil
}

// Next advances to the following record and reports validity.
func (it *Iterator) Next() bool {
	if it.n == nil {
		return false
	}
	it.m.mu.RLock()
	it.n = it.n.next[0]
	it.m.mu.RUnlock()
	return it.n != nil
}

// Valid reports whether the iterator is positioned on a record.
func (it *Iterator) Valid() bool { return it.n != nil }

// Record returns the current record. Only valid while Valid() is true.
func (it *Iterator) Record() record.Record { return it.n.rec }
