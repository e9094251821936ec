// Package sortedview implements a REMIX-style cross-table sorted view over
// a partition's UnsortedStore (PAPERS.md: "REMIX: Efficient Range Query for
// LSM-trees"). Unsorted tables are individually sorted but overlap each
// other, so a range query classically re-merges every table on every call
// and scan latency degrades linearly with table count until the size-based
// scan merge rewrites them. The view removes the per-call merge: it is one
// globally sorted array of (table, block, pos) cursors across all tables,
// so a scan binary-searches once and then walks entries in key order,
// materializing records positionally from the tables.
//
// Like REMIX's shared sorted view (and like the build-time-only learned
// indexes in "A Pragmatic Approach to Learned Indexing in RocksDB"), the
// view exploits that unsorted tables are immutable between flush and
// scan-merge: it is built incrementally at flush — the new table's
// pre-sorted entries are merged into the existing sorted array in one
// linear pass, never a from-scratch rebuild — and a merge or scan merge
// that replaces the table set derives the successor the same way
// (Replace): the survivors' entries are kept, renumbered, and the
// scan-merged table's entries, collected while it was written, are merged
// in. Only the first scan after a recovery builds a view by reading tables.
//
// A View is immutable after construction and carries a monotonically
// increasing version. Its owner, an internal/unsorted.Store, is immutable
// too: a successor store carries the successor view, and a scan holds the
// view it iterates through the partition version that names the store —
// entries, cursors, and the table readers they point into stay consistent
// for the scan's lifetime. The package has no locks of its own.
//
// Memory: one entry stores a copy of the key plus ~40 bytes of cursor and
// ordering state. This parallels the paper's two-level hash index, whose
// memory also scales with the UnsortedStore (UnsortedLimit bounds both).
package sortedview

import (
	"slices"
	"sort"
	"sync/atomic"

	"unikv/internal/arena"
	"unikv/internal/codec"
	"unikv/internal/record"
	"unikv/internal/sstable"
)

// Entry is one cursor of the view: the ordering fields of a record plus
// its position inside its table. Values are never duplicated into the
// view — they are materialized from the table block on demand.
type Entry struct {
	// Key is a copy of the record's key (table block buffers are cache-
	// managed and must not be aliased past a block load).
	Key []byte
	// Seq and Kind mirror the record, so merge ordering and tombstone
	// checks never touch the table.
	Seq  uint64
	Kind record.Kind
	// Table indexes the view's table list; Block/Pos locate the record
	// inside that table (sstable.Reader.LoadBlock + Block.RecordAt).
	Table uint16
	Block int32
	Pos   int32
}

// versions issues view version numbers, package-global so versions stay
// unique across partitions (a scan pinning view v can assert it never
// observes entries from v').
var versions atomic.Uint64

// View is an immutable sorted view over a set of unsorted tables. Entries
// are ordered (key asc, seq desc) — identical to the merge order the view
// replaces — and keep every version of a key, including tombstones, so a
// scan layered above the SortedStore sees exactly the records the per-call
// k-way merge used to produce.
type View struct {
	version  uint64
	tables   []*sstable.Reader
	entries  []Entry
	keyBytes int64
}

// New returns an empty view.
func New() *View {
	return &View{version: versions.Add(1)}
}

// Version returns the view's unique version number.
func (v *View) Version() uint64 { return v.version }

// Len returns the entry count.
func (v *View) Len() int { return len(v.entries) }

// NumTables returns the number of tables the view spans.
func (v *View) NumTables() int { return len(v.tables) }

// MemoryBytes approximates the view's resident memory: key bytes plus
// fixed per-entry overhead.
func (v *View) MemoryBytes() int64 {
	const entryOverhead = 48 // slice header + seq/kind/cursor fields
	return v.keyBytes + int64(len(v.entries))*entryOverhead
}

// WithTable returns a new view extended with one freshly flushed table.
// entries must be the table's records in (key asc, seq desc) order with
// Key/Seq/Kind/Block/Pos set (Table is assigned here); Collect produces
// them from a reader, the flush path collects them while building the
// table. The merge of two sorted arrays is a single linear pass — the
// incremental build the package comment describes. The receiver is not
// modified; its entries are shared with the result where possible (Entry
// values are copied, the keys they point at are shared and immutable).
func (v *View) WithTable(r *sstable.Reader, entries []Entry) *View {
	id := len(v.tables)
	if id > 0xffff {
		// Mirrors the UnsortedStore's own local-ID bound; unreachable
		// before unsorted.Store.AddTable fails first.
		panic("sortedview: too many tables")
	}
	nv := &View{
		version:  versions.Add(1),
		tables:   append(append([]*sstable.Reader(nil), v.tables...), r),
		entries:  merge(make([]Entry, 0, len(v.entries)+len(entries)), v.entries, entries, uint16(id)),
		keyBytes: v.keyBytes,
	}
	for _, e := range entries {
		nv.keyBytes += int64(len(e.Key))
	}
	return nv
}

// Replace returns the view over head (nil: none) followed by v's tables
// from drop on, the table set a merge or scan merge commits. It keeps those
// tables' entries, renumbered, and merges head's entries — in table order,
// as for WithTable — in under table 0. It reads no table.
func (v *View) Replace(drop int, head *sstable.Reader, entries []Entry) *View {
	first := 0
	var tables []*sstable.Reader
	if head != nil {
		first, tables = 1, []*sstable.Reader{head}
	}
	nv := &View{version: versions.Add(1), tables: append(tables, v.tables[drop:]...)}
	kept := make([]Entry, 0, len(v.entries)+len(entries))
	for _, e := range v.entries {
		if int(e.Table) >= drop {
			e.Table = uint16(int(e.Table) - drop + first)
			kept = append(kept, e)
		}
	}
	if head != nil {
		kept = merge(make([]Entry, 0, len(kept)+len(entries)), kept, entries, 0)
	}
	nv.entries = kept
	for _, e := range kept {
		nv.keyBytes += int64(len(e.Key))
	}
	return nv
}

// merge appends a and b, each in merge order, to dst in merge order; b's
// entries get table id, a's keep theirs.
func merge(dst, a, b []Entry, id uint16) []Entry {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if x, y := a[i], b[j]; less(y.Key, y.Seq, x.Key, x.Seq) {
			y.Table = id
			dst = append(dst, y)
			j++
		} else {
			dst = append(dst, x)
			i++
		}
	}
	dst = append(dst, a[i:]...)
	for ; j < len(b); j++ {
		e := b[j]
		e.Table = id
		dst = append(dst, e)
	}
	return dst
}

// less is merge order: key ascending, sequence descending (the newest
// version of a key sorts first). Matches mergeiter.Less.
func less(ka []byte, sa uint64, kb []byte, sb uint64) bool {
	if c := codec.Compare(ka, kb); c != 0 {
		return c < 0
	}
	return sa > sb
}

// Collect iterates r and returns its entries in table order (already
// (key asc, seq desc) — tables are individually sorted), with keys copied
// out of the block buffers. The recovery path uses this; the flush path
// collects entries for free while building the table.
func Collect(r *sstable.Reader) ([]Entry, error) {
	entries := make([]Entry, 0, r.Count())
	var keyArena arena.Bytes
	it := r.NewIterator()
	for ok := it.First(); ok; ok = it.Next() {
		rec := it.Record()
		block, pos := it.Position()
		entries = append(entries, Entry{
			Key:   keyArena.Copy(rec.Key),
			Seq:   rec.Seq,
			Kind:  rec.Kind,
			Block: int32(block),
			Pos:   int32(pos),
		})
	}
	return entries, it.Err()
}

// search returns the index of the first entry with key >= target (Len if
// none). Entries are (key asc, seq desc), so the hit is the newest
// version of the first matching key — the same record a Seek on the
// replaced k-way merge would surface first.
func (v *View) search(target []byte) int {
	return sort.Search(len(v.entries), func(i int) bool {
		return codec.Compare(v.entries[i].Key, target) >= 0
	})
}

// ---------------------------------------------------------------------------
// Iterator.

// Iter walks a view in entry order. It implements mergeiter.RecIter plus
// Err, so the scan path drops it into the same merge machinery that used
// to hold one iterator per table. Each positioning call materializes the
// current record; Record is then a field read. One parsed block per table
// is cached: a table's entries appear in block order, so the cache turns
// positional access into at most one load per (table, block) pair — the
// same block I/O the per-table iterators performed.
type Iter struct {
	v     *View
	i     int
	rec   record.Record
	valid bool
	err   error

	blocks    []sstable.Block // per-table cached parsed block, if Valid
	blockIdxs []int32         // which block each valid cache slot holds
}

// NewIterator returns an iterator positioned before the first entry.
func (v *View) NewIterator() *Iter {
	it := new(Iter)
	v.ResetIterator(it)
	return it
}

// ResetIterator makes it an iterator over v positioned before the first
// entry, reusing its per-table slices. A nil v leaves it referencing no
// view, table or block.
func (v *View) ResetIterator(it *Iter) {
	n := 0
	if v != nil {
		n = len(v.tables)
	}
	clear(it.blocks)
	*it = Iter{v: v, i: -1, blocks: slices.Grow(it.blocks[:0], n)[:n], blockIdxs: slices.Grow(it.blockIdxs[:0], n)[:n]}
}

// Err returns the first error encountered materializing a record.
func (it *Iter) Err() error { return it.err }

// Valid reports whether the iterator is on a record.
func (it *Iter) Valid() bool { return it.valid }

// Record returns the current record. Key/Seq/Kind come from the entry;
// the value aliases the cached block buffer (immutable, copied by the
// scan before it leaves the engine).
func (it *Iter) Record() record.Record { return it.rec }

// First positions at the first entry.
func (it *Iter) First() bool { return it.goTo(0) }

// Seek positions at the first entry with key >= target.
func (it *Iter) Seek(target []byte) bool { return it.goTo(it.v.search(target)) }

// Next advances to the following entry.
func (it *Iter) Next() bool {
	if it.err != nil {
		return false
	}
	return it.goTo(it.i + 1)
}

// goTo materializes entry i (or exhausts the iterator).
func (it *Iter) goTo(i int) bool {
	if it.err != nil {
		return false
	}
	it.i = i
	if i < 0 || i >= len(it.v.entries) {
		it.valid = false
		return false
	}
	e := &it.v.entries[i]
	if e.Kind == record.KindDelete {
		// Tombstones carry no value: skip the block access entirely (a
		// heavily deleted range scans without touching table blocks).
		it.rec = record.Record{Key: e.Key, Seq: e.Seq, Kind: e.Kind}
		it.valid = true
		return true
	}
	if !it.blocks[e.Table].Valid() || it.blockIdxs[e.Table] != e.Block {
		b, err := it.v.tables[e.Table].LoadBlock(int(e.Block))
		if err != nil {
			it.err = err
			it.valid = false
			return false
		}
		it.blocks[e.Table] = b
		it.blockIdxs[e.Table] = e.Block
	}
	rec, err := it.blocks[e.Table].RecordAt(int(e.Pos))
	if err != nil {
		it.err = err
		it.valid = false
		return false
	}
	// The entry is authoritative for ordering fields; a cursor pointing at
	// a record with a different key would mean the view and table diverged
	// (never happens: both are immutable). Keep the entry's key — it is
	// arena-owned and outlives block cache eviction.
	rec.Key = e.Key
	it.rec = rec
	it.valid = true
	return true
}
