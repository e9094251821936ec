// Package mergeiter provides the k-way merging iterator shared by the
// UniKV engine and the baseline LSM engines: it interleaves several
// (key asc, seq desc)-ordered record streams into one globally ordered
// stream. The first record per key is therefore always the newest version.
package mergeiter

import (
	"slices"

	"unikv/internal/codec"
	"unikv/internal/record"
)

// RecIter is the common shape of memtable, sstable, and run iterators. A
// positioning call reports whether the iterator is on a record.
type RecIter interface {
	First() bool
	Seek(target []byte) bool
	Next() bool
	Record() record.Record
}

// Iter merges several RecIters. It keeps each live input's current record,
// so a step compares cached keys and asks only the input it advanced for
// its next record. With the handful of inputs typical here a linear
// selection per step beats heap bookkeeping.
type Iter struct {
	iters []RecIter
	heads []head // heads[i] is iters[i]'s current record
	cur   int
}

// head is one input's cached position: its current record, if it has one.
type head struct {
	rec record.Record
	ok  bool
}

// New builds a merging iterator over iters.
func New(iters []RecIter) *Iter { return &Iter{iters: iters, heads: make([]head, len(iters)), cur: -1} }

// Reset makes m a merge over iters, unpositioned, reusing m's per-input
// state. Reset(nil) leaves m referencing no input and no record.
func (m *Iter) Reset(iters []RecIter) {
	clear(m.heads)
	m.iters, m.cur = iters, -1
	m.heads = slices.Grow(m.heads[:0], len(iters))[:len(iters)]
}

// Less orders (ka, sa) before (kb, sb) in merge order: key ascending,
// sequence descending.
func Less(ka []byte, sa uint64, kb []byte, sb uint64) bool {
	if c := codec.Compare(ka, kb); c != 0 {
		return c < 0
	}
	return sa > sb
}

// load caches input i's record after a positioning call that returned ok.
func (m *Iter) load(i int, ok bool) {
	m.heads[i] = head{ok: ok}
	if ok {
		m.heads[i].rec = m.iters[i].Record()
	}
}

func (m *Iter) pick() bool {
	m.cur = -1
	var best *record.Record
	for i := range m.heads {
		h := &m.heads[i]
		if h.ok && (best == nil || Less(h.rec.Key, h.rec.Seq, best.Key, best.Seq)) {
			m.cur, best = i, &h.rec
		}
	}
	return m.cur >= 0
}

// First positions at the globally smallest record.
func (m *Iter) First() bool {
	for i, it := range m.iters {
		m.load(i, it.First())
	}
	return m.pick()
}

// Seek positions at the first record with key >= target.
func (m *Iter) Seek(target []byte) bool {
	for i, it := range m.iters {
		m.load(i, it.Seek(target))
	}
	return m.pick()
}

// Next advances to the following record.
func (m *Iter) Next() bool {
	if m.cur >= 0 {
		m.load(m.cur, m.iters[m.cur].Next())
	}
	return m.pick()
}

// Valid reports whether the iterator is on a record.
func (m *Iter) Valid() bool { return m.cur >= 0 }

// Record returns the current record.
func (m *Iter) Record() record.Record { return m.heads[m.cur].rec }

// Err returns the first error any input iterator reported (inputs that
// don't expose Err are assumed infallible).
func (m *Iter) Err() error {
	for _, it := range m.iters {
		if e, ok := it.(interface{ Err() error }); ok {
			if err := e.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Dedup wraps an Iter, yielding only the newest version of each key.
type Dedup struct {
	m        *Iter
	lastKey  []byte
	haveLast bool
}

// NewDedup wraps m.
func NewDedup(m *Iter) *Dedup { return &Dedup{m: m} }

// First positions at the newest version of the smallest key.
func (d *Dedup) First() bool {
	d.haveLast = false
	if !d.m.First() {
		return false
	}
	d.remember()
	return true
}

// Seek positions at the newest version of the first key >= target.
func (d *Dedup) Seek(target []byte) bool {
	d.haveLast = false
	if !d.m.Seek(target) {
		return false
	}
	d.remember()
	return true
}

// Next advances to the newest version of the next distinct key.
func (d *Dedup) Next() bool {
	for d.m.Next() {
		if !d.haveLast || codec.Compare(d.m.Record().Key, d.lastKey) != 0 {
			d.remember()
			return true
		}
	}
	return false
}

func (d *Dedup) remember() {
	d.lastKey = append(d.lastKey[:0], d.m.Record().Key...)
	d.haveLast = true
}

// Valid reports whether the iterator is on a record.
func (d *Dedup) Valid() bool { return d.m.Valid() }

// Record returns the current record.
func (d *Dedup) Record() record.Record { return d.m.Record() }

// Err propagates input errors.
func (d *Dedup) Err() error { return d.m.Err() }
