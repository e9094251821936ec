package sstable

import (
	"unikv/internal/codec"
	"unikv/internal/record"
)

// Iterator walks a table's records in (key asc, seq desc) order, loading
// data blocks lazily.
type Iterator struct {
	r        *Reader
	fill     fillMode // noFill for a maintenance pass: read through the cache, never populate it
	blockIdx int
	pb       parsedBlock
	pos      int // record index within pb; pb.n means exhausted
	rec      record.Record
	valid    bool
	err      error
}

// NewIterator returns an iterator positioned before the first record.
func (r *Reader) NewIterator() *Iterator {
	return &Iterator{r: r, blockIdx: -1, fill: fillPlain}
}

// NewMaintIterator returns an iterator for a one-shot pass over the whole
// table — merge, scan-merge, GC and split inputs, which are deleted right
// after. It takes blocks the cache already holds but never adds the ones
// it reads, so a maintenance job cannot evict the read path's hot set.
func (r *Reader) NewMaintIterator() *Iterator {
	return &Iterator{r: r, blockIdx: -1, fill: noFill}
}

// Reset repositions the iterator before the first record of r, keeping its
// mode (NewIterator or NewMaintIterator) and dropping its block.
func (it *Iterator) Reset(r *Reader) { *it = Iterator{r: r, blockIdx: -1, fill: it.fill} }

// Err returns the first I/O or corruption error encountered.
func (it *Iterator) Err() error { return it.err }

// Valid reports whether the iterator is positioned on a record.
func (it *Iterator) Valid() bool { return it.valid }

// Record returns the current record; its slices alias the loaded block
// buffer (freshly allocated per block, so they stay valid).
func (it *Iterator) Record() record.Record { return it.rec }

// Position returns the current record's (block, pos) coordinates, usable
// with Reader.LoadBlock for later positional re-access. Only meaningful
// while Valid.
func (it *Iterator) Position() (block, pos int) { return it.blockIdx, it.pos }

// First positions at the table's first record.
func (it *Iterator) First() bool {
	it.blockIdx = -1
	it.pb = parsedBlock{}
	it.pos = 0
	it.valid = false
	return it.Next()
}

// loadBlock reads and parses block i, positioning before its first record.
func (it *Iterator) loadBlock(i int) bool {
	b, err := it.r.readBlock(i, it.fill)
	if err != nil {
		it.err = err
		it.valid = false
		return false
	}
	pb, err := parseBlock(b)
	if err != nil {
		it.err = err
		it.valid = false
		return false
	}
	it.blockIdx = i
	it.pb = pb
	it.pos = 0
	return true
}

// setAt materializes the record at it.pos.
func (it *Iterator) setAt() bool {
	rec, err := it.pb.recordAt(it.pos)
	if err != nil {
		it.err = err
		it.valid = false
		return false
	}
	it.rec = rec
	it.valid = true
	return true
}

// Next advances to the following record.
func (it *Iterator) Next() bool {
	if it.err != nil {
		return false
	}
	if it.valid {
		it.pos++
	}
	for it.pos >= it.pb.n {
		next := it.blockIdx + 1
		if next >= len(it.r.index) {
			it.valid = false
			return false
		}
		if !it.loadBlock(next) {
			return false
		}
	}
	return it.setAt()
}

// Seek positions at the first record with key >= target.
func (it *Iterator) Seek(target []byte) bool {
	if it.err != nil {
		return false
	}
	bi := it.r.blockFor(target)
	if bi >= len(it.r.index) {
		it.valid = false
		it.pb = parsedBlock{}
		it.pos = 0
		it.blockIdx = len(it.r.index)
		return false
	}
	if !it.loadBlock(bi) {
		return false
	}
	pos, err := it.pb.search(target)
	if err != nil {
		it.err = err
		it.valid = false
		return false
	}
	it.pos = pos
	if it.pos >= it.pb.n {
		// target is past this block's records (possible when target falls
		// in the gap before the next block): continue into it.
		it.valid = false
		return it.Next()
	}
	if !it.setAt() {
		return false
	}
	// Defensive: guaranteed by blockFor, but keep the invariant explicit.
	if codec.Compare(it.rec.Key, target) < 0 {
		return it.Next()
	}
	return true
}
