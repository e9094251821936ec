package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"sync/atomic"

	"unikv/internal/cache"
	"unikv/internal/codec"
	"unikv/internal/record"
	"unikv/internal/vfs"
)

// ErrCorruptTable reports a malformed or checksum-failing table file.
var ErrCorruptTable = errors.New("sstable: corrupt table")

// blockHandle locates a data block inside the file.
type blockHandle struct {
	lastKey []byte
	offset  uint64
	length  uint32
}

// Reader serves point lookups and iteration over one table. The index and
// meta blocks are held in memory (the paper assumes index metadata is
// cached); data blocks are read on demand.
type Reader struct {
	f      vfs.File
	index  []blockHandle
	filter []byte

	// cache, when attached via SetCache, holds this table's verified data
	// blocks: one slot per block of the index, owned by this reader.
	cache *cache.Table

	count    int
	minSeq   uint64
	maxSeq   uint64
	smallest []byte
	largest  []byte
	size     int64

	// BlockReads counts data-block fetches that reach the file (cache hits
	// excluded), powering the read-amplification and access-frequency
	// experiments.
	BlockReads atomic.Int64
}

// SetCache attaches the shared block cache, which accounts this table's
// blocks under id (its file number). Call once, before the reader is shared
// between goroutines. A nil cache leaves the reader uncached.
func (r *Reader) SetCache(c *cache.Cache, id uint64) {
	r.cache = c.NewTable(id, len(r.index))
}

// Open loads the footer, meta, and index of the table in f.
func Open(f vfs.File) (*Reader, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	if size < footerLen {
		return nil, ErrCorruptTable
	}
	var footer [footerLen]byte
	if _, err := f.ReadAt(footer[:], size-footerLen); err != nil {
		return nil, err
	}
	rest := footer[:]
	var indexOff uint64
	var indexLen uint32
	var metaOff uint64
	var metaLen uint32
	var magic uint64
	if indexOff, rest, err = codec.Uint64(rest); err != nil {
		return nil, err
	}
	if indexLen, rest, err = codec.Uint32(rest); err != nil {
		return nil, err
	}
	if metaOff, rest, err = codec.Uint64(rest); err != nil {
		return nil, err
	}
	if metaLen, rest, err = codec.Uint32(rest); err != nil {
		return nil, err
	}
	if magic, _, err = codec.Uint64(rest); err != nil {
		return nil, err
	}
	if magic != tableMagic {
		return nil, ErrCorruptTable
	}

	r := &Reader{f: f, size: size}

	meta, err := r.readChecked(metaOff, metaLen, false)
	if err != nil {
		return nil, err
	}
	var count, minSeq, maxSeq uint64
	if count, meta, err = codec.Uvarint(meta); err != nil {
		return nil, err
	}
	if minSeq, meta, err = codec.Uvarint(meta); err != nil {
		return nil, err
	}
	if maxSeq, meta, err = codec.Uvarint(meta); err != nil {
		return nil, err
	}
	var smallest, largest, filter []byte
	if smallest, meta, err = codec.Bytes(meta); err != nil {
		return nil, err
	}
	if largest, meta, err = codec.Bytes(meta); err != nil {
		return nil, err
	}
	if filter, _, err = codec.Bytes(meta); err != nil {
		return nil, err
	}
	r.count = int(count)
	r.minSeq = minSeq
	r.maxSeq = maxSeq
	r.smallest = append([]byte(nil), smallest...)
	r.largest = append([]byte(nil), largest...)
	r.filter = append([]byte(nil), filter...)

	index, err := r.readChecked(indexOff, indexLen, false)
	if err != nil {
		return nil, err
	}
	for len(index) > 0 {
		var h blockHandle
		var key []byte
		if key, index, err = codec.Bytes(index); err != nil {
			return nil, err
		}
		if h.offset, index, err = codec.Uint64(index); err != nil {
			return nil, err
		}
		if h.length, index, err = codec.Uint32(index); err != nil {
			return nil, err
		}
		h.lastKey = key // aliases the index payload, which the reader owns
		r.index = append(r.index, h)
	}
	return r, nil
}

// readChecked reads a payload and verifies its trailing CRC. Bounds come
// from the footer or index, which a corrupted file controls, so they are
// validated against the file size before allocating. The buffer is exactly
// payload + CRC, or with spare set, as large as the allocator's size class
// makes it anyway: the payload's capacity then runs on past the CRC into
// slack that hashBlock can use.
func (r *Reader) readChecked(off uint64, length uint32, spare bool) ([]byte, error) {
	if off > uint64(r.size) || uint64(length)+4 > uint64(r.size)-off {
		return nil, ErrCorruptTable
	}
	n := int(length) + 4
	var buf []byte
	if spare {
		buf = slices.Grow(buf, n)[:n]
	} else {
		buf = make([]byte, n)
	}
	if _, err := r.f.ReadAt(buf, int64(off)); err != nil {
		return nil, fmt.Errorf("sstable: read @%d+%d: %w", off, length, err)
	}
	payload := buf[:length]
	want := codec.UnmaskChecksum(uint32(buf[length]) | uint32(buf[length+1])<<8 |
		uint32(buf[length+2])<<16 | uint32(buf[length+3])<<24)
	if codec.Checksum(payload) != want {
		return nil, ErrCorruptTable
	}
	return payload, nil
}

// fillMode is what a block read that misses the cache leaves in it.
type fillMode uint8

const (
	noFill     fillMode = iota // maintenance passes: read through, add nothing
	fillPlain                  // iterators and LoadBlock: the block as read
	fillHashed                 // point reads: the block with its hash (hashBlock)
)

// readBlock fetches data block i, consulting the attached cache first and
// leaving the block there for the next reader as fill says. The returned
// bytes may be shared with the cache and other readers: callers must treat
// them as immutable (records parsed from a block are copied before they
// leave the engine).
func (r *Reader) readBlock(i int, fill fillMode) ([]byte, error) {
	if b, ok := r.cache.Get(i); ok {
		return b, nil
	}
	h := r.index[i]
	r.BlockReads.Add(1)
	hashed := fill == fillHashed && r.cache != nil
	b, err := r.readChecked(h.offset, h.length, hashed)
	if err != nil {
		return nil, err
	}
	if hashed {
		b = hashBlock(b)
	}
	if fill != noFill {
		r.cache.Add(i, b)
	}
	return b, nil
}

// The block hash: a point read's index of the cached block it filled, from
// key to the newest record of that key, so that a lookup reads one bucket,
// that record's trailer entry and the record instead of binary-searching
// the offset trailer. It lives in
// the slack of the block's buffer, behind the payload and its CRC — 2 bytes
// a bucket, {record index + 1 (0: empty), 8-bit tag}, linear probing — and
// never reaches the disk: the cache is charged the payload alone, and the
// buffer is the one allocation the read makes anyway. A block's capacity
// ends at its CRC when it has no hash and at its last bucket when it has one.

// blockHashSeed seeds the block hash. Each process picks its own: the hash
// is built in memory from the block it indexes and never stored.
var blockHashSeed = maphash.MakeSeed()

// maxHashedRecords is the most records a hashed block holds: a bucket names
// its record in one byte.
const maxHashedRecords = 255

// bucketOf maps a key hash onto nb buckets (multiply-shift, no division).
func bucketOf(h uint64, nb int) int { return int(uint64(uint32(h)) * uint64(nb) >> 32) }

// hashBlock builds the block hash into the slack of a point read's buffer
// and returns the payload with its capacity ending at the last bucket. A
// block it cannot hash — fewer than 2 buckets of slack per record, more than
// maxHashedRecords records, or a record that does not decode — comes back
// with its capacity ending at the CRC, to be binary-searched.
func hashBlock(block []byte) []byte {
	end := len(block) + 4
	plain := block[:len(block):end]
	nb := (cap(block) - end) / 2
	pb, err := parseBlock(block)
	if err != nil || pb.n > maxHashedRecords || nb < 2*pb.n {
		return plain
	}
	buckets := block[end : end+2*nb]
	clear(buckets)
	var prev []byte
	for i := 0; i < pb.n; i++ {
		key, err := pb.keyAt(i)
		if err != nil {
			return plain
		}
		if i > 0 && bytes.Equal(key, prev) {
			continue // an older version: the bucket names the newest
		}
		prev = key
		h := maphash.Bytes(blockHashSeed, key)
		b := bucketOf(h, nb)
		for buckets[2*b] != 0 {
			if b++; b == nb {
				b = 0
			}
		}
		buckets[2*b], buckets[2*b+1] = byte(i+1), byte(h>>56)
	}
	return block[: len(block) : end+2*nb]
}

// Block is a parsed data block handed out by LoadBlock for positional
// record access (internal/sortedview stores (block, pos) cursors and
// materializes records through this). The zero value is invalid.
type Block struct {
	pb parsedBlock
}

// Valid reports whether the block holds records.
func (b Block) Valid() bool { return b.pb.n > 0 }

// Len returns the number of records in the block.
func (b Block) Len() int { return b.pb.n }

// RecordAt decodes record i of the block. The returned slices alias the
// block buffer (shared with the cache): treat them as immutable.
func (b Block) RecordAt(i int) (record.Record, error) {
	if i < 0 || i >= b.pb.n {
		return record.Record{}, ErrCorruptTable
	}
	return b.pb.recordAt(i)
}

// LoadBlock reads and parses data block i (consulting the cache), for
// positional access via Block.RecordAt.
func (r *Reader) LoadBlock(i int) (Block, error) {
	if i < 0 || i >= len(r.index) {
		return Block{}, ErrCorruptTable
	}
	raw, err := r.readBlock(i, fillPlain)
	if err != nil {
		return Block{}, err
	}
	pb, err := parseBlock(raw)
	if err != nil {
		return Block{}, err
	}
	return Block{pb: pb}, nil
}

// parsedBlock provides random access to a block's records via the offset
// trailer written by the builder.
type parsedBlock struct {
	data    []byte // record region
	offsets []byte // 2 bytes LE per record
	n       int
	buckets []byte // the block hash; empty when the block has none
}

// parseBlock validates and splits a block payload.
func parseBlock(block []byte) (parsedBlock, error) {
	if len(block) < 2 {
		return parsedBlock{}, ErrCorruptTable
	}
	n := int(block[len(block)-2]) | int(block[len(block)-1])<<8
	trailer := 2 + 2*n
	if n == 0 || trailer > len(block) {
		return parsedBlock{}, ErrCorruptTable
	}
	pb := parsedBlock{
		data:    block[:len(block)-trailer],
		offsets: block[len(block)-trailer : len(block)-2],
		n:       n,
	}
	if end := len(block) + 4; cap(block) > end {
		pb.buckets = block[end:cap(block)]
	}
	return pb, nil
}

// at returns the byte offset of record i.
func (p parsedBlock) at(i int) int {
	return int(p.offsets[2*i]) | int(p.offsets[2*i+1])<<8
}

// keyAt decodes just the key of record i.
func (p parsedBlock) keyAt(i int) ([]byte, error) {
	off := p.at(i)
	if off >= len(p.data) {
		return nil, ErrCorruptTable
	}
	key, _, err := codec.Bytes(p.data[off:])
	return key, err
}

// recordAt decodes record i.
func (p parsedBlock) recordAt(i int) (record.Record, error) {
	off := p.at(i)
	if off >= len(p.data) {
		return record.Record{}, ErrCorruptTable
	}
	rec, _, err := record.Decode(p.data[off:])
	return rec, err
}

// search returns the index of the first record with key >= target (n if
// none). Records are (key asc, seq desc), so the hit is the newest version.
func (p parsedBlock) search(target []byte) (int, error) {
	lo, hi := 0, p.n
	for lo < hi {
		mid := (lo + hi) / 2
		k, err := p.keyAt(mid)
		if err != nil {
			return 0, err
		}
		if codec.Compare(k, target) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// find returns the newest record whose key is key: through the block hash
// when the block has one — an empty bucket answers "absent" without touching
// a record — else by binary search.
func (p parsedBlock) find(key []byte) (record.Record, bool, error) {
	if nb := len(p.buckets) / 2; nb > 0 {
		h := maphash.Bytes(blockHashSeed, key)
		for b := bucketOf(h, nb); p.buckets[2*b] != 0; {
			if p.buckets[2*b+1] == byte(h>>56) {
				rec, err := p.recordAt(int(p.buckets[2*b]) - 1)
				if err != nil || bytes.Equal(rec.Key, key) {
					return rec, err == nil, err
				}
			}
			if b++; b == nb {
				b = 0
			}
		}
		return record.Record{}, false, nil
	}
	i, err := p.search(key)
	if err != nil || i >= p.n {
		return record.Record{}, false, err
	}
	rec, err := p.recordAt(i)
	if err != nil || !bytes.Equal(rec.Key, key) {
		return record.Record{}, false, err
	}
	return rec, true, nil
}

// blockFor returns the index of the first block whose lastKey >= key, or
// len(index) if key is past the table.
func (r *Reader) blockFor(key []byte) int {
	lo, hi := 0, len(r.index)
	for lo < hi {
		mid := (lo + hi) / 2
		if codec.Compare(r.index[mid].lastKey, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns the newest record for key in this table. A key outside
// [Smallest, Largest] is absent like any other: past the end without a block
// read, before the start after one of block 0 — a caller that probes tables
// it did not choose by key checks the range first.
func (r *Reader) Get(key []byte) (record.Record, bool, error) {
	if len(r.filter) > 0 && !bloomMayContain(r.filter, key) {
		return record.Record{}, false, nil
	}
	bi := r.blockFor(key)
	if bi >= len(r.index) {
		return record.Record{}, false, nil
	}
	block, err := r.readBlock(bi, fillHashed)
	if err != nil {
		return record.Record{}, false, err
	}
	pb, err := parseBlock(block)
	if err != nil {
		return record.Record{}, false, err
	}
	// The record aliases the block buffer, which is either freshly
	// allocated or a shared immutable cache resident; callers copy before
	// exposing bytes outside the engine and never mutate records in place.
	return pb.find(key)
}

// MayContain consults the Bloom filter (true when absent or no filter).
func (r *Reader) MayContain(key []byte) bool {
	if len(r.filter) == 0 {
		return true
	}
	return bloomMayContain(r.filter, key)
}

// Count returns the number of records in the table.
func (r *Reader) Count() int { return r.count }

// Smallest returns the table's smallest key.
func (r *Reader) Smallest() []byte { return r.smallest }

// Largest returns the table's largest key.
func (r *Reader) Largest() []byte { return r.largest }

// MaxSeq returns the largest sequence number stored.
func (r *Reader) MaxSeq() uint64 { return r.maxSeq }

// MinSeq returns the smallest sequence number stored.
func (r *Reader) MinSeq() uint64 { return r.minSeq }

// Size returns the file size in bytes.
func (r *Reader) Size() int64 { return r.size }

// NumBlocks returns the number of data blocks.
func (r *Reader) NumBlocks() int { return len(r.index) }

// Close releases the file and drops the table's cached blocks. The engine
// closes a reader exactly when it removes the table's file, so the cache
// never holds the blocks of a dead table.
func (r *Reader) Close() error {
	r.cache.Close()
	return r.f.Close()
}

// VerifyChecksums is the one walk over a table's bytes — the engine's
// integrity check, its background scrub, Repair and the unikv-ctl verify
// command all use it. It re-reads every data block (the meta and index
// blocks were validated at open) bypassing the block cache, so the bytes on
// disk — not a cached copy — are what gets checked, and charges each
// block's bytes to pace (nil: unpaced). It returns the index of the first
// bad block with its error, or -1 and nil. An error of pace's own stops the
// walk and is returned as is.
func (r *Reader) VerifyChecksums(pace func(int64) error) (int, error) {
	for i := range r.index {
		n, err := r.VerifyBlock(i)
		if err == nil && pace != nil {
			err = pace(n)
		}
		if err != nil {
			return i, err
		}
	}
	return -1, nil
}

// VerifyBlock re-reads data block i from disk, bypassing the block cache,
// and verifies its checksum and every record's encoding. It returns the
// number of bytes read so a rate-limited scrub can pace itself block by
// block instead of paying for a whole table at once.
func (r *Reader) VerifyBlock(i int) (int64, error) {
	h := r.index[i]
	r.BlockReads.Add(1)
	block, err := r.readChecked(h.offset, h.length, false)
	if err != nil {
		return 0, fmt.Errorf("block %d: %w", i, err)
	}
	pb, err := parseBlock(block)
	if err != nil {
		return 0, fmt.Errorf("block %d: %w", i, err)
	}
	for j := 0; j < pb.n; j++ {
		if _, err := pb.recordAt(j); err != nil {
			return 0, fmt.Errorf("block %d record %d: %w", i, j, err)
		}
	}
	return int64(h.length), nil
}
