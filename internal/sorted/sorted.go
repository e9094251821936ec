// Package sorted implements UniKV's SortedStore: one fully sorted run of
// SSTables per partition, holding keys and value pointers after partial KV
// separation. There are no Bloom filters and no levels: a point lookup
// binary-searches the in-memory table boundary keys, touching at most one
// table and (index blocks being memory-resident) one data-block I/O — the
// paper's headline read-path property.
package sorted

import (
	"unikv/internal/codec"
	"unikv/internal/manifest"
	"unikv/internal/record"
	"unikv/internal/sstable"
)

// Table is one table of a partition, in either store: its manifest entry
// and its open reader. The UnsortedStore lists the same type.
type Table struct {
	Meta   manifest.TableMeta
	Reader *sstable.Reader
}

// Store is one sorted run of a partition. It is immutable: the merge, GC
// and split paths build a new run and the partition publishes a version
// naming it, so readers use a Store without any lock.
type Store struct {
	tables []*Table // key order, non-overlapping
	size   int64
}

// New returns the run over tables (key order, non-overlapping); no tables
// is the empty run.
func New(tables []*Table) *Store {
	s := &Store{tables: tables}
	for _, t := range tables {
		s.size += t.Meta.Size
	}
	return s
}

// Tables returns the run's tables in key order.
func (s *Store) Tables() []*Table { return s.tables }

// NumTables returns the number of tables.
func (s *Store) NumTables() int { return len(s.tables) }

// SizeBytes returns the total table bytes (keys + pointers only; values
// live in the value logs).
func (s *Store) SizeBytes() int64 { return s.size }

// tableFor returns the index of the single table that may contain key, or
// -1. Because tables are non-overlapping and sorted, this is a binary
// search over boundary keys.
func (s *Store) tableFor(key []byte) int {
	lo, hi := 0, len(s.tables)
	for lo < hi {
		mid := (lo + hi) / 2
		if codec.Compare(s.tables[mid].Meta.Largest, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(s.tables) {
		return -1
	}
	if codec.Compare(key, s.tables[lo].Meta.Smallest) < 0 {
		return -1
	}
	return lo
}

// Get returns the record for key (typically a KindSetPtr whose value is an
// encoded record.ValuePtr, or a tombstone).
func (s *Store) Get(key []byte) (record.Record, bool, error) {
	i := s.tableFor(key)
	if i < 0 {
		return record.Record{}, false, nil
	}
	return s.tables[i].Reader.Get(key)
}

// Iterator walks the sorted run across table boundaries.
type Iterator struct {
	s     *Store
	maint bool // per-table iterators are maintenance iterators
	ti    int
	it    *sstable.Iterator // &tab while on a table, else nil
	tab   sstable.Iterator  // the current table's iterator, reused per table
	err   error
}

// NewIterator returns an iterator positioned before the first record.
func (s *Store) NewIterator() *Iterator {
	return &Iterator{s: s, ti: -1}
}

// NewMaintIterator is NewIterator for a one-shot maintenance pass (merge,
// GC, split): it reads through the block cache without populating it (see
// sstable.Reader.NewMaintIterator).
func (s *Store) NewMaintIterator() *Iterator {
	return &Iterator{s: s, ti: -1, maint: true}
}

// Reset repositions the iterator before the first record of s, keeping its
// mode. Reset(nil) leaves it referencing no store, table or block.
func (it *Iterator) Reset(s *Store) { *it = Iterator{s: s, ti: -1, maint: it.maint} }

// tableIter positions the table iterator before table i's first record.
func (it *Iterator) tableIter(i int) *sstable.Iterator {
	if it.maint {
		it.tab = *it.s.tables[i].Reader.NewMaintIterator()
	} else {
		it.tab = *it.s.tables[i].Reader.NewIterator()
	}
	return &it.tab
}

// Valid reports whether the iterator is on a record.
func (it *Iterator) Valid() bool { return it.it != nil && it.it.Valid() }

// Record returns the current record.
func (it *Iterator) Record() record.Record { return it.it.Record() }

// Err returns the first error encountered.
func (it *Iterator) Err() error { return it.err }

// First positions at the run's first record.
func (it *Iterator) First() bool {
	it.ti = -1
	it.it = nil
	return it.Next()
}

// Next advances to the following record.
func (it *Iterator) Next() bool {
	if it.err != nil {
		return false
	}
	if it.it != nil && it.it.Next() {
		return true
	}
	for {
		if it.it != nil {
			if err := it.it.Err(); err != nil {
				it.err = err
				return false
			}
		}
		it.ti++
		if it.ti >= len(it.s.tables) {
			it.it = nil
			return false
		}
		it.it = it.tableIter(it.ti)
		if it.it.First() {
			return true
		}
	}
}

// Seek positions at the first record with key >= target.
func (it *Iterator) Seek(target []byte) bool {
	if it.err != nil {
		return false
	}
	// Find the first table whose largest >= target.
	lo, hi := 0, len(it.s.tables)
	for lo < hi {
		mid := (lo + hi) / 2
		if codec.Compare(it.s.tables[mid].Meta.Largest, target) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(it.s.tables) {
		it.it = nil
		it.ti = len(it.s.tables)
		return false
	}
	it.ti = lo
	it.it = it.tableIter(lo)
	if it.it.Seek(target) {
		return true
	}
	if err := it.it.Err(); err != nil {
		it.err = err
		return false
	}
	// target is past this table's data (can't happen with consistent
	// metadata, but stay safe): continue into the next table.
	return it.Next()
}
