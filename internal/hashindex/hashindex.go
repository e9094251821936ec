// Package hashindex implements UniKV's lightweight two-level in-memory hash
// index over the UnsortedStore (paper §Design, "Hash indexing").
//
// The index maps a key to the UnsortedStore table that holds its newest
// version. Each bucket has one direct slot plus an overflow chain; an insert
// probes buckets h_1(key)%N .. h_n(key)%N (cuckoo-style multi-choice) for a
// free direct slot and otherwise chains an overflow entry onto bucket
// h_n(key)%N. A lookup probes in the reverse order, h_n .. h_1, checking
// chain entries newest-first before the direct slot, so along a run of
// inserts the most recently inserted version of a key is found first (slot
// occupancy is monotone, so newer entries can only land at higher-numbered
// probes or in chains). Carry, which derives a successor index from a live
// one, does not keep that order: see Lookup.
//
// Each entry costs 8 bytes — <keyTag(2B), tableID(2B), pointer(4B)> — the
// paper's budget, in memory as well (unsafe.Sizeof of a bucket and of an
// overflow entry is 8; TestEntriesAreEightBytes). keyTag is the top 16 bits
// of an (n+1)-th hash and filters candidates; false positives are resolved
// by reading the key from the candidate table. The pointer is the chain
// link (an arena index here; the paper chains file-format entries the same
// way); in a bucket its top bit says whether the direct slot is in use.
//
// For crash recovery the index is checkpointed to disk (paper: every
// UnsortedLimit/2 flushes) and reloaded + replayed on open.
package hashindex

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"
	"sync"

	"unikv/internal/codec"
	"unikv/internal/vfs"
)

// DefaultNumHash is the number of candidate buckets probed per key.
const DefaultNumHash = 4

// ErrBadCheckpoint reports an unreadable checkpoint file.
var ErrBadCheckpoint = errors.New("hashindex: corrupt checkpoint")

// bucket is the first level: one inline entry plus an overflow chain head.
type bucket struct {
	tag   uint16
	table uint16
	// head is usedBit (the inline entry is in use) or'd with the chain
	// head's 1-based arena index (0 = nil).
	head uint32
}

// usedBit marks a bucket's inline entry in use; the 31 bits below it hold
// the chain head, so the arena holds at most maxArena entries.
const (
	usedBit  = 1 << 31
	maxArena = usedBit - 1
)

func (b *bucket) used() bool    { return b.head&usedBit != 0 }
func (b *bucket) chain() uint32 { return b.head &^ usedBit }

// setChain points b's chain at the 1-based arena index ai.
func (b *bucket) setChain(ai uint32) { b.head = b.head&usedBit | ai }

// overflow is a chained (second-level) entry.
type overflow struct {
	tag   uint16
	table uint16
	next  uint32 // 1-based arena index; 0 = nil
}

// Index is the two-level hash index. It is safe for concurrent use.
type Index struct {
	mu      sync.RWMutex
	buckets []bucket
	arena   []overflow
	numHash int
	count   int
}

// New creates an index with nBuckets first-level buckets and numHash probe
// functions (DefaultNumHash if numHash <= 0). Size nBuckets near the
// expected number of live entries for ~80 % direct-slot utilization.
func New(nBuckets, numHash int) *Index {
	if nBuckets < 16 {
		nBuckets = 16
	}
	if numHash <= 0 {
		numHash = DefaultNumHash
	}
	if numHash > maxNumHash {
		numHash = maxNumHash
	}
	return &Index{buckets: make([]bucket, nBuckets), numHash: numHash}
}

// hashSeeds provides independent 64-bit mixes; seed i drives h_{i+1}.
var hashSeeds = [...]uint64{
	0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb,
	0xd6e8feb86659fd93, 0xa5a5a5a5a5a5a5a5, 0xc2b2ae3d27d4eb4f,
	0x165667b19e3779f9, 0x27d4eb2f165667c5,
}

// baseHash is an FNV-1a 64 over the key.
func baseHash(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// mix finalizes base with a seed (splitmix64 finalizer).
func mix(base, seed uint64) uint64 {
	z := base ^ seed
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// maxNumHash bounds the probe count so hash results fit a stack array.
const maxNumHash = len(hashSeeds) - 1

// hashes fills bs with the n bucket indices (h_1..h_n) and returns the
// probe slice and the keyTag (h_{n+1}). bs must have maxNumHash capacity.
func (x *Index) hashes(key []byte, bs *[maxNumHash]uint32) ([]uint32, uint16) {
	base := baseHash(key)
	n := x.numHash
	for i := 0; i < n; i++ {
		bs[i] = uint32(mix(base, hashSeeds[i]) % uint64(len(x.buckets)))
	}
	tag := uint16(mix(base, hashSeeds[n]) >> 48)
	return bs[:n], tag
}

// Insert records that key's newest version lives in table.
func (x *Index) Insert(key []byte, table uint16) {
	var arr [maxNumHash]uint32
	bs, tag := x.hashes(key, &arr)
	x.mu.Lock()
	defer x.mu.Unlock()
	x.insertLocked(bs, tag, table)
}

// insertChunk bounds the keys InsertAll places under one hold of the lock,
// so a lookup waits behind a flush for a few microseconds at most. Lookups
// wait less in all behind fewer, longer holds: in a block profile of the
// perf ledger's hot-read-update workload (2 vCPUs), readers' total wait
// fell from 273 ms (one hold per key) to 35 ms at 16 keys a hold, 16–22 ms
// at 256 and 18 ms at 1 024.
const insertChunk = 256

// InsertAll records that every key's newest version lives in table, as
// Insert would one key at a time (a later key of keys is a newer version).
// It hashes a chunk of keys outside the lock and places the chunk under one
// hold of it: a flushed table's keys take the lock once per chunk, not once
// per key.
func (x *Index) InsertAll(keys [][]byte, table uint16) {
	var probes [insertChunk]struct {
		bs  [maxNumHash]uint32
		tag uint16
	}
	for len(keys) > 0 {
		chunk := keys[:min(len(keys), insertChunk)]
		keys = keys[len(chunk):]
		for i, k := range chunk {
			_, probes[i].tag = x.hashes(k, &probes[i].bs)
		}
		x.mu.Lock()
		for i := range chunk {
			x.insertLocked(probes[i].bs[:x.numHash], probes[i].tag, table)
		}
		x.mu.Unlock()
	}
}

// insertLocked places one entry whose probe buckets are bs. Callers hold
// x.mu.
func (x *Index) insertLocked(bs []uint32, tag, table uint16) {
	// Probe h_1..h_n for a free direct slot.
	for _, bi := range bs {
		b := &x.buckets[bi]
		if !b.used() {
			b.head |= usedBit
			b.tag = tag
			b.table = table
			x.count++
			return
		}
	}
	// All full: chain onto bucket h_n, newest at the head.
	x.chainLocked(&x.buckets[bs[len(bs)-1]], tag, table)
	x.count++
}

// chainLocked pushes an entry onto b's overflow chain. Callers hold x.mu.
func (x *Index) chainLocked(b *bucket, tag, table uint16) {
	if len(x.arena) >= maxArena {
		panic("hashindex: overflow arena full")
	}
	x.arena = append(x.arena, overflow{tag: tag, table: table, next: b.chain()})
	b.setChain(uint32(len(x.arena))) // 1-based
}

// Carry inserts into x every entry of src that table keeps, under the table
// ID it returns, each into the bucket it occupies in src: the direct slot if
// free, else that bucket's chain. A bucket an entry sits in is one of its
// key's probe buckets, so Lookup still finds it — though a carried entry can
// come up before a newer one (see Lookup). x and src must have the same
// geometry (SameGeometry).
func (x *Index) Carry(src *Index, table func(uint16) (uint16, bool)) {
	if !x.SameGeometry(src) {
		panic("hashindex: Carry between indexes of different geometry")
	}
	src.mu.RLock()
	defer src.mu.RUnlock()
	x.mu.Lock()
	defer x.mu.Unlock()
	put := func(bi int, tag, id uint16) {
		if b := &x.buckets[bi]; !b.used() {
			b.head |= usedBit
			b.tag, b.table = tag, id
		} else {
			x.chainLocked(b, tag, id)
		}
		x.count++
	}
	for bi := range src.buckets {
		b := &src.buckets[bi]
		if id, ok := table(b.table); ok && b.used() {
			put(bi, b.tag, id)
		}
		for ai := b.chain(); ai != 0; ai = src.arena[ai-1].next {
			e := &src.arena[ai-1]
			if id, ok := table(e.table); ok {
				put(bi, e.tag, id)
			}
		}
	}
}

// SameGeometry reports whether x and y have the same buckets and probe
// functions, so that each key probes the same buckets in both.
func (x *Index) SameGeometry(y *Index) bool {
	return len(x.buckets) == len(y.buckets) && x.numHash == y.numHash
}

// Lookup calls fn with each candidate tableID until fn returns true (found)
// or candidates are exhausted, and returns whether fn stopped the search.
// Between Carry calls candidates come newest insertion first; a carried
// index does not keep that order, so a caller that needs the newest version
// ranks the candidates itself (unsorted.Store.Get probes them in descending
// table ID).
func (x *Index) Lookup(key []byte, fn func(table uint16) bool) bool {
	var arr [maxNumHash]uint32
	bs, tag := x.hashes(key, &arr)
	x.mu.RLock()
	defer x.mu.RUnlock()
	for i := len(bs) - 1; i >= 0; i-- {
		b := &x.buckets[bs[i]]
		// Overflow chain first (strictly newer than any direct slot probed
		// at or below this bucket), newest-first.
		for ai := b.chain(); ai != 0; ai = x.arena[ai-1].next {
			e := &x.arena[ai-1]
			if e.tag == tag && fn(e.table) {
				return true
			}
		}
		if b.used() && b.tag == tag && fn(b.table) {
			return true
		}
	}
	return false
}

// Reset drops all entries (used when the UnsortedStore drains into the
// SortedStore and all tables disappear at once).
func (x *Index) Reset() {
	x.mu.Lock()
	defer x.mu.Unlock()
	for i := range x.buckets {
		x.buckets[i] = bucket{}
	}
	x.arena = x.arena[:0]
	x.count = 0
}

// Count returns the number of live entries.
func (x *Index) Count() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.count
}

// MemoryBytes reports the index's memory footprint: 8 bytes per bucket and
// per overflow entry (the tab-mem experiment's metric).
func (x *Index) MemoryBytes() int64 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return int64(len(x.buckets))*8 + int64(len(x.arena))*8
}

// Utilization returns the fraction of direct slots in use.
func (x *Index) Utilization() float64 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	used := 0
	for i := range x.buckets {
		if x.buckets[i].used() {
			used++
		}
	}
	return float64(used) / float64(len(x.buckets))
}

// OverflowLen returns the number of chained entries.
func (x *Index) OverflowLen() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.arena)
}

// ---------------------------------------------------------------------------
// Checkpointing.

const checkpointMagic uint64 = 0x756e696b76686169 // "unikvhai"

// Marshal serializes the index (with a trailing checksum) for embedding in
// a larger checkpoint file.
func (x *Index) Marshal() []byte {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.appendMarshal(make([]byte, 0, x.marshaledSize()))
}

// Unmarshal restores an index serialized by Marshal.
func Unmarshal(data []byte) (*Index, error) {
	return unmarshalChecked(data)
}

// Save writes an atomic checkpoint of the index to name.
func (x *Index) Save(fs vfs.FS, name string) error {
	return fs.WriteFile(name, x.Marshal())
}

// AppendLengthPrefixed appends Marshal's bytes to dst behind their uvarint
// length (codec.PutBytes framing), growing dst at most once.
func (x *Index) AppendLengthPrefixed(dst []byte) []byte {
	x.mu.RLock()
	defer x.mu.RUnlock()
	n := x.marshaledSize()
	dst = slices.Grow(dst, binary.MaxVarintLen64+n)
	return x.appendMarshal(codec.PutUvarint(dst, uint64(n)))
}

// marshaledSize is the exact length of the Marshal encoding: header, 9 bytes
// per bucket, 8 per overflow entry, checksum. Callers hold x.mu.
func (x *Index) marshaledSize() int {
	return 8 + uvarintLen(uint64(x.numHash)) + uvarintLen(uint64(len(x.buckets))) + uvarintLen(uint64(len(x.arena))) +
		9*len(x.buckets) + 8*len(x.arena) + 4
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// appendMarshal appends the encoding and its checksum to dst, which has
// marshaledSize spare capacity. Callers hold x.mu.
func (x *Index) appendMarshal(dst []byte) []byte {
	start := len(dst)
	dst = codec.PutUint64(dst, checkpointMagic)
	dst = codec.PutUvarint(dst, uint64(x.numHash))
	dst = codec.PutUvarint(dst, uint64(len(x.buckets)))
	dst = codec.PutUvarint(dst, uint64(len(x.arena)))
	for i := range x.buckets {
		b := &x.buckets[i]
		u := byte(0)
		if b.used() {
			u = 1
		}
		dst = append(dst, u)
		dst = codec.PutUint32(dst, uint32(b.tag)|uint32(b.table)<<16)
		dst = codec.PutUint32(dst, b.chain())
	}
	for i := range x.arena {
		e := &x.arena[i]
		dst = codec.PutUint32(dst, uint32(e.tag)|uint32(e.table)<<16)
		dst = codec.PutUint32(dst, e.next)
	}
	return codec.PutUint32(dst, codec.MaskChecksum(codec.Checksum(dst[start:])))
}

// Load restores an index from a checkpoint written by Save.
func Load(fs vfs.FS, name string) (*Index, error) {
	data, err := fs.ReadFile(name)
	if err != nil {
		return nil, err
	}
	return unmarshalChecked(data)
}

// unmarshalChecked validates the checksum and decodes the index.
func unmarshalChecked(data []byte) (*Index, error) {
	var err error
	if len(data) < 12 {
		return nil, ErrBadCheckpoint
	}
	body, crcB := data[:len(data)-4], data[len(data)-4:]
	want, _, _ := codec.Uint32(crcB)
	if codec.MaskChecksum(codec.Checksum(body)) != want {
		return nil, ErrBadCheckpoint
	}
	var magic uint64
	if magic, body, err = codec.Uint64(body); err != nil || magic != checkpointMagic {
		return nil, ErrBadCheckpoint
	}
	var numHash, nBuckets, nArena uint64
	if numHash, body, err = codec.Uvarint(body); err != nil {
		return nil, ErrBadCheckpoint
	}
	if nBuckets, body, err = codec.Uvarint(body); err != nil {
		return nil, ErrBadCheckpoint
	}
	if nArena, body, err = codec.Uvarint(body); err != nil || nArena > maxArena {
		return nil, ErrBadCheckpoint
	}
	x := &Index{
		buckets: make([]bucket, nBuckets),
		arena:   make([]overflow, nArena),
		numHash: int(numHash),
	}
	for i := range x.buckets {
		if len(body) < 9 {
			return nil, ErrBadCheckpoint
		}
		used := body[0] == 1
		body = body[1:]
		var packed, head uint32
		if packed, body, err = codec.Uint32(body); err != nil {
			return nil, ErrBadCheckpoint
		}
		if head, body, err = codec.Uint32(body); err != nil || head&usedBit != 0 {
			return nil, ErrBadCheckpoint
		}
		x.buckets[i] = bucket{tag: uint16(packed), table: uint16(packed >> 16), head: head}
		if used {
			x.buckets[i].head |= usedBit
			x.count++
		}
	}
	for i := range x.arena {
		var packed, next uint32
		if packed, body, err = codec.Uint32(body); err != nil {
			return nil, ErrBadCheckpoint
		}
		if next, body, err = codec.Uint32(body); err != nil {
			return nil, ErrBadCheckpoint
		}
		x.arena[i] = overflow{tag: uint16(packed), table: uint16(packed >> 16), next: next}
		x.count++
	}
	if len(body) != 0 {
		return nil, ErrBadCheckpoint
	}
	return x, nil
}
