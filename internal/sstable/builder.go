// Package sstable implements the sorted-string-table file format used by
// every on-disk store in this repository: the UnsortedStore and SortedStore
// of UniKV (which disables Bloom filters — the unified index replaces them)
// and the leveled/fragmented baseline LSM engines (which enable them).
//
// Layout:
//
//	data block 0 | crc | data block 1 | crc | ... | meta block | crc |
//	index block | crc | footer
//
// Data blocks hold consecutive record.Record encodings and target
// BlockSize bytes. The index block stores, per data block, the last key,
// file offset, and payload length; a reader keeps it in memory so a point
// lookup costs one binary search plus one block read. The meta block holds
// entry count, sequence bounds, smallest/largest key, and the optional
// Bloom filter.
package sstable

import (
	"errors"
	"sync"

	"unikv/internal/codec"
	"unikv/internal/record"
	"unikv/internal/vfs"
)

// BlockSize is the target size of a data block (the paper's 4 KiB unit).
const BlockSize = 4096

const (
	footerLen         = 8 + 4 + 8 + 4 + 8
	tableMagic uint64 = 0x756e696b76737374 // "unikvsst"
)

// BuilderOptions configures table construction.
type BuilderOptions struct {
	// BloomBitsPerKey > 0 adds a Bloom filter with that many bits per key.
	// UniKV stores use 0; baseline LSMs use 10.
	BloomBitsPerKey int
	// BlockSize overrides the default data-block size when > 0.
	BlockSize int
}

// outBufSize is how many output bytes the builder stages before handing
// them to the file: a flushed memtable (4 MiB by default) is normally one
// Write, a merge output a few.
const outBufSize = 4 << 20

// outPool recycles staging buffers between builders; a table's worth of
// output would otherwise be a fresh multi-megabyte allocation per flush.
var outPool = sync.Pool{New: func() any {
	b := make([]byte, 0, outBufSize+outBufSize/16)
	return &b
}}

// Builder writes a table. Add must be called in strictly increasing
// (key asc, seq desc) order. Records are encoded straight into a pooled
// output buffer — block payloads, their CRCs, meta, index and footer all
// land there — which is written out whenever it reaches outBufSize and at
// Finish. Nothing a reader would accept exists in the file before Finish
// writes the footer, so a failed or torn write leaves only an unpublished
// file for the orphan sweep.
type Builder struct {
	f    vfs.File
	opts BuilderOptions

	out        []byte   // staged output not yet written
	pooled     *[]byte  // out's pool slot; nil once Finish released it
	flushed    uint64   // bytes already written to f
	blockStart int      // where the pending data block begins in out
	blockN     int      // records in the pending block
	offsets    []uint16 // start offset of each record within the block
	index      []byte
	numBlocks  int

	count    int
	smallest []byte
	largest  []byte // also the pending block's last key
	minSeq   uint64
	maxSeq   uint64

	keyHashes []uint32

	err error
}

// NewBuilder starts a table in f.
func NewBuilder(f vfs.File, opts BuilderOptions) *Builder {
	if opts.BlockSize <= 0 {
		opts.BlockSize = BlockSize
	}
	pooled := outPool.Get().(*[]byte)
	return &Builder{f: f, opts: opts, minSeq: ^uint64(0), out: (*pooled)[:0], pooled: pooled}
}

// Add appends one record.
func (b *Builder) Add(r record.Record) {
	if b.err != nil {
		return
	}
	if b.count == 0 {
		b.smallest = append([]byte(nil), r.Key...)
	}
	b.largest = append(b.largest[:0], r.Key...)
	if r.Seq < b.minSeq {
		b.minSeq = r.Seq
	}
	if r.Seq > b.maxSeq {
		b.maxSeq = r.Seq
	}
	b.count++
	if b.opts.BloomBitsPerKey > 0 {
		b.keyHashes = append(b.keyHashes, bloomHash(r.Key))
	}

	b.offsets = append(b.offsets, uint16(len(b.out)-b.blockStart))
	b.out = r.Encode(b.out)
	b.blockN++
	// Flush at the size target, and always before a record would start
	// past the uint16 offset range.
	if n := len(b.out) - b.blockStart; n >= b.opts.BlockSize || n > 0xf000 {
		b.flushBlock()
	}
}

// flushBlock seals the pending data block and records it in the index.
// The block payload is the concatenated records followed by a trailer of
// per-record start offsets (uint16 LE each) and the record count (uint16
// LE), enabling intra-block binary search (LevelDB's restart points with a
// restart interval of 1).
func (b *Builder) flushBlock() {
	if b.blockN == 0 || b.err != nil {
		return
	}
	for _, off := range b.offsets {
		b.out = append(b.out, byte(off), byte(off>>8))
	}
	n := uint16(len(b.offsets))
	b.out = append(b.out, byte(n), byte(n>>8))
	b.offsets = b.offsets[:0]
	off, payloadLen := b.sealPayload()
	b.index = codec.PutBytes(b.index, b.largest)
	b.index = codec.PutUint64(b.index, off)
	b.index = codec.PutUint32(b.index, uint32(payloadLen))
	b.blockN = 0
	b.numBlocks++
	if len(b.out) >= outBufSize {
		b.writeOut()
	}
}

// sealPayload appends the masked CRC of the payload staged since
// blockStart and returns the payload's file offset and length.
func (b *Builder) sealPayload() (off uint64, length int) {
	off = b.flushed + uint64(b.blockStart)
	length = len(b.out) - b.blockStart
	c := codec.MaskChecksum(codec.Checksum(b.out[b.blockStart:]))
	b.out = codec.PutUint32(b.out, c)
	b.blockStart = len(b.out)
	return off, length
}

// writeOut hands the staged bytes to the file. Only called between
// payloads (blockStart == len(b.out)).
func (b *Builder) writeOut() {
	if b.err != nil || len(b.out) == 0 {
		return
	}
	if _, err := b.f.Write(b.out); err != nil {
		b.err = err
		return
	}
	b.flushed += uint64(len(b.out))
	b.out = b.out[:0]
	b.blockStart = 0
}

// Count returns the number of records added so far.
func (b *Builder) Count() int { return b.count }

// NextPosition returns the (block, pos) coordinates the next Add will
// write to: block is the data-block index, pos the record index within
// it. Together with Iterator.Position and Reader.LoadBlock it lets a
// caller build positional cursors into the table (internal/sortedview)
// without re-reading the finished file.
func (b *Builder) NextPosition() (block, pos int) { return b.numBlocks, b.blockN }

// EstimatedSize returns the table bytes produced so far, including the
// pending block.
func (b *Builder) EstimatedSize() int64 { return int64(b.flushed) + int64(len(b.out)) }

// release returns the staging buffer to the pool (oversized ones — a
// table of huge records — are left to the collector).
func (b *Builder) release() {
	if cap(b.out) <= 2*outBufSize {
		*b.pooled = b.out[:0]
		outPool.Put(b.pooled)
	}
	b.out, b.pooled = nil, nil
}

// Finish flushes remaining data and writes meta, index, and footer. The
// file is synced. Finish returns table statistics for the caller's
// metadata (manifest entries). The builder is spent afterwards.
func (b *Builder) Finish() (Props, error) {
	if b.pooled == nil {
		return Props{}, errors.New("sstable: builder already finished")
	}
	defer b.release()
	b.flushBlock()
	if b.err != nil {
		return Props{}, b.err
	}

	// Meta block.
	b.out = codec.PutUvarint(b.out, uint64(b.count))
	b.out = codec.PutUvarint(b.out, b.minSeq)
	b.out = codec.PutUvarint(b.out, b.maxSeq)
	b.out = codec.PutBytes(b.out, b.smallest)
	b.out = codec.PutBytes(b.out, b.largest)
	var filter []byte
	if b.opts.BloomBitsPerKey > 0 && len(b.keyHashes) > 0 {
		filter = buildBloom(b.keyHashes, b.opts.BloomBitsPerKey)
	}
	b.out = codec.PutBytes(b.out, filter)
	metaOff, metaLen := b.sealPayload()

	// Index block.
	b.out = append(b.out, b.index...)
	indexOff, indexLen := b.sealPayload()

	// Footer.
	b.out = codec.PutUint64(b.out, indexOff)
	b.out = codec.PutUint32(b.out, uint32(indexLen))
	b.out = codec.PutUint64(b.out, metaOff)
	b.out = codec.PutUint32(b.out, uint32(metaLen))
	b.out = codec.PutUint64(b.out, tableMagic)

	b.writeOut()
	if b.err != nil {
		return Props{}, b.err
	}
	if err := b.f.Sync(); err != nil {
		return Props{}, err
	}
	return Props{
		Count:    b.count,
		MinSeq:   b.minSeq,
		MaxSeq:   b.maxSeq,
		Smallest: b.smallest,
		Largest:  append([]byte(nil), b.largest...),
		Size:     int64(b.flushed),
	}, nil
}

// Props summarizes a finished table.
type Props struct {
	Count    int
	MinSeq   uint64
	MaxSeq   uint64
	Smallest []byte
	Largest  []byte
	Size     int64
}
