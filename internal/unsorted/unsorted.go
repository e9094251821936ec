// Package unsorted implements UniKV's UnsortedStore: the first disk tier of
// a partition, holding tables flushed straight from the memtable. Tables
// are internally sorted (they come from the skiplist) but their key ranges
// overlap each other, so point lookups are served by the in-memory
// two-level hash index rather than per-table search, and a scan must
// consult every table (until the size-based merge compacts them into one).
//
// A table's local ID for the hash index is its position in flush order;
// that keeps the <keyTag, SSTableID, pointer> entries at 8 bytes and makes
// the ID ↔ file mapping recoverable from the manifest's table list alone.
package unsorted

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"unikv/internal/arena"
	"unikv/internal/codec"
	"unikv/internal/hashindex"
	"unikv/internal/manifest"
	"unikv/internal/record"
	"unikv/internal/sortedview"
	"unikv/internal/sstable"
	"unikv/internal/vfs"
)

// ErrBadCheckpoint reports an unusable store checkpoint.
var ErrBadCheckpoint = errors.New("unsorted: checkpoint does not match table set")

// Table is one flushed UnsortedStore table.
type Table struct {
	Meta   manifest.TableMeta
	Reader *sstable.Reader
}

// Store is the UnsortedStore of one partition. Callers (the partition)
// serialize mutations; reads are safe concurrently with each other.
type Store struct {
	tables []*Table
	index  *hashindex.Index
	size   int64

	// view is the cross-table sorted view (internal/sortedview). It is an
	// atomic pointer because one mutation path does not hold the partition
	// write lock: the lazy post-recovery rebuild runs under the partition
	// READ lock plus viewMu, concurrently with other scans loading the
	// pointer. All other swaps happen under the partition write lock like
	// the rest of the store's state.
	view atomic.Pointer[sortedview.View]
	// viewMu serializes the lazy rebuild (see ScanView). Lock order: it is
	// taken strictly after the owning partition's mu and is never held
	// across any other lock acquisition.
	viewMu sync.Mutex
	// viewStale is set by recovery instead of building the view eagerly:
	// rebuilding would read every table and erase the hash checkpoint's
	// recovery savings. While stale, AddTable skips view maintenance (the
	// rebuild walks the full table list anyway) and scans either trigger
	// the rebuild or fall back to per-table merging.
	viewStale atomic.Bool

	// viewBuilds counts incremental view extensions (one per AddTable);
	// viewRebuilds counts from-scratch reconstructions (ReplaceTables,
	// lazy post-recovery rebuilds) and drops (Reset).
	viewBuilds   atomic.Int64
	viewRebuilds atomic.Int64

	// DisableIndex turns off the hash index (the fig11 ablation): lookups
	// probe tables newest-first like a conventional L0, and AddTable skips
	// index maintenance. Set it before the first AddTable.
	DisableIndex bool
	// DisableView turns off the cross-table sorted view (Options.
	// SortedViewOff): scans fall back to a per-call k-way merge over the
	// tables. Set it before the first AddTable.
	DisableView bool
}

// New creates an empty store whose hash index has nBuckets buckets.
func New(nBuckets int) *Store {
	s := &Store{index: hashindex.New(nBuckets, hashindex.DefaultNumHash)}
	s.view.Store(sortedview.New())
	return s
}

// AddTable registers a freshly flushed table. keys carries the table's keys
// in any order and entries the table's sorted-view cursors in table order,
// when the caller already has them (the flush path collects both while
// writing the table); pass nil to have the store iterate the table once and
// derive what it needs (the recovery and table-replacement paths).
func (s *Store) AddTable(t *Table, keys [][]byte, entries []sortedview.Entry) error {
	id := len(s.tables)
	if id > 0xffff {
		return fmt.Errorf("unsorted: too many tables (%d)", id)
	}
	// One reader pass covers both the hash index and the view when either
	// is missing its input; no path iterates the table twice. A stale view
	// is left untouched: its eventual rebuild walks the full table list,
	// new tables included.
	maintainView := !s.DisableView && !s.viewStale.Load()
	insertIdx := !s.DisableIndex && keys == nil
	collectView := maintainView && entries == nil
	if insertIdx || collectView {
		it := t.Reader.NewIterator()
		var collected []sortedview.Entry
		var keyArena arena.Bytes // view keys must not pin block buffers
		if collectView {
			collected = make([]sortedview.Entry, 0, t.Reader.Count())
		}
		for ok := it.First(); ok; ok = it.Next() {
			rec := it.Record()
			if insertIdx {
				s.index.Insert(rec.Key, uint16(id))
			}
			if collectView {
				block, pos := it.Position()
				collected = append(collected, sortedview.Entry{
					Key:   keyArena.Copy(rec.Key),
					Seq:   rec.Seq,
					Kind:  rec.Kind,
					Block: int32(block),
					Pos:   int32(pos),
				})
			}
		}
		if err := it.Err(); err != nil {
			return err
		}
		if collectView {
			entries = collected
		}
	}
	if !s.DisableIndex && keys != nil {
		for _, k := range keys {
			s.index.Insert(k, uint16(id))
		}
	}
	s.tables = append(s.tables, t)
	s.size += t.Meta.Size
	if maintainView {
		s.view.Store(s.view.Load().WithTable(t.Reader, entries))
		s.viewBuilds.Add(1)
	}
	return nil
}

// Get returns the newest record for key across all tables, using the hash
// index. Candidate tables are gathered from the index and probed in
// descending local-ID order — local IDs are assigned in flush order, so
// this is strictly newest-first even when a keyTag collision injects an
// alien entry into the probe sequence. keyTag false positives are resolved
// by the key comparison inside the table read.
func (s *Store) Get(key []byte) (record.Record, bool, error) {
	if s.DisableIndex {
		for i := len(s.tables) - 1; i >= 0; i-- {
			rec, hit, err := s.tables[i].Reader.Get(key)
			if err != nil {
				return record.Record{}, false, err
			}
			if hit {
				return rec, true, nil
			}
		}
		return record.Record{}, false, nil
	}
	var cand [8]uint16
	n := 0
	overflowed := false
	s.index.Lookup(key, func(tid uint16) bool {
		if int(tid) >= len(s.tables) {
			return false // stale entry beyond current tables: skip
		}
		for i := 0; i < n; i++ {
			if cand[i] == tid {
				return false
			}
		}
		if n == len(cand) {
			overflowed = true
			return true
		}
		cand[n] = tid
		n++
		return false
	})
	if overflowed {
		// Implausibly many tag collisions: fall back to scanning tables
		// newest-first directly.
		for i := len(s.tables) - 1; i >= 0; i-- {
			rec, hit, err := s.tables[i].Reader.Get(key)
			if err != nil {
				return record.Record{}, false, err
			}
			if hit {
				return rec, true, nil
			}
		}
		return record.Record{}, false, nil
	}
	// Sort the (tiny) candidate set descending by local ID.
	ids := cand[:n]
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] > ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	for _, tid := range ids {
		rec, hit, err := s.tables[tid].Reader.Get(key)
		if err != nil {
			return record.Record{}, false, err
		}
		if hit && codec.Compare(rec.Key, key) == 0 {
			return rec, true, nil
		}
	}
	return record.Record{}, false, nil
}

// Tables returns the tables in flush order (oldest first).
func (s *Store) Tables() []*Table { return s.tables }

// NumTables returns the number of tables.
func (s *Store) NumTables() int { return len(s.tables) }

// SizeBytes returns the total table bytes.
func (s *Store) SizeBytes() int64 { return s.size }

// Index exposes the hash index (stats, checkpointing).
func (s *Store) Index() *hashindex.Index { return s.index }

// ScanView returns the current cross-table sorted view, or nil when the
// view is disabled or cannot be produced. The returned view is immutable:
// a scan that loads it under the partition read lock can iterate it
// safely while later mutations swap in successors.
//
// After recovery the view is stale (never built — see MarkViewStale); the
// first ScanView rebuilds it here, under viewMu so concurrent scans do
// the work once. Callers hold the partition read lock, which keeps the
// table set frozen during the rebuild. A rebuild error degrades to the
// per-table merge path by returning nil; the next scan retries.
func (s *Store) ScanView() *sortedview.View {
	if s.DisableView {
		return nil
	}
	if s.viewStale.Load() {
		if !s.rebuildViewLazy() {
			return nil
		}
	}
	return s.view.Load()
}

// rebuildViewLazy constructs the view from the current table set and
// clears staleness. Requires the partition read lock (table-set
// stability); viewMu makes concurrent callers collapse into one rebuild.
func (s *Store) rebuildViewLazy() bool {
	s.viewMu.Lock()
	defer s.viewMu.Unlock()
	if !s.viewStale.Load() {
		return true // another scan already rebuilt it
	}
	v := sortedview.New()
	for _, t := range s.tables {
		entries, err := sortedview.Collect(t.Reader)
		if err != nil {
			return false
		}
		v = v.WithTable(t.Reader, entries)
	}
	s.view.Store(v)
	s.viewRebuilds.Add(1)
	s.viewStale.Store(false)
	return true
}

// MarkViewStale defers view construction to the first scan. Recovery uses
// it so reopening a store does not read every table just to rebuild the
// memory-only view (which would void the hash checkpoint's savings).
func (s *Store) MarkViewStale() {
	if !s.DisableView {
		s.viewStale.Store(true)
	}
}

// ViewStats reports the view's entry count, approximate memory, and the
// incremental-build / rebuild counters (zeros when disabled).
func (s *Store) ViewStats() (entries int, bytes, builds, rebuilds int64) {
	if s.DisableView {
		return 0, 0, 0, 0
	}
	v := s.view.Load()
	return v.Len(), v.MemoryBytes(), s.viewBuilds.Load(), s.viewRebuilds.Load()
}

// Reset drops all tables and index entries (after the store drains into
// the SortedStore). The caller closes readers and deletes files.
func (s *Store) Reset() {
	s.tables = nil
	s.size = 0
	s.index.Reset()
	if !s.DisableView {
		s.view.Store(sortedview.New())
		s.viewStale.Store(false) // empty is exact, stale or not
		s.viewRebuilds.Add(1)
	}
}

// ReplaceAll swaps the table set for the single merged table produced by
// the size-based merge (scan optimization) and rebuilds the index over it.
func (s *Store) ReplaceAll(t *Table) error {
	return s.ReplaceTables([]*Table{t})
}

// ReplaceTables swaps the full table set, rebuilding the index and the
// sorted view (local IDs and view table IDs are positional, so survivors
// of a partial replacement need fresh IDs). Background merges use this to
// drop the merged prefix while keeping tables flushed during the merge
// build. The single reader pass per table inside AddTable feeds both
// structures.
func (s *Store) ReplaceTables(tables []*Table) error {
	s.tables = nil
	s.size = 0
	s.index.Reset()
	if !s.DisableView {
		// A full replacement makes any staleness moot: start exact and let
		// AddTable extend incrementally below.
		s.view.Store(sortedview.New())
		s.viewStale.Store(false)
		s.viewRebuilds.Add(1)
	}
	for _, t := range tables {
		if err := s.AddTable(t, nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Checkpointing (crash consistency for the hash index).
//
// The checkpoint embeds the marshaled hash index plus the list of table
// file numbers it covers, in flush order. At recovery, if the covered list
// is a prefix of the manifest's table list, the index is loaded and only
// the uncovered tables are replayed; otherwise the whole index is rebuilt.

const ckptMagic uint64 = 0x756e696b76756e73 // "unikvuns"

// Checkpoint serializes the index and its covered-table list to name.
func (s *Store) Checkpoint(fs vfs.FS, name string) error {
	buf := make([]byte, 0, 8+binary.MaxVarintLen64*(1+len(s.tables)))
	buf = codec.PutUint64(buf, ckptMagic)
	buf = codec.PutUvarint(buf, uint64(len(s.tables)))
	for _, t := range s.tables {
		buf = codec.PutUvarint(buf, t.Meta.FileNum)
	}
	// The index, by far the larger part, grows buf once to its final size.
	return fs.WriteFile(name, s.index.AppendLengthPrefixed(buf))
}

// Recover rebuilds the store from the manifest's table list, using the
// checkpoint at ckptName when it matches. openTable maps a table meta to an
// opened reader. disableView skips sorted-view support entirely; otherwise
// the memory-only view is marked stale and rebuilt lazily on the first
// scan, so recovery reads no table bytes beyond what the hash index needs.
func Recover(
	fs vfs.FS,
	nBuckets int,
	metas []manifest.TableMeta,
	ckptName string,
	disableView bool,
	openTable func(manifest.TableMeta) (*sstable.Reader, error),
) (*Store, error) {
	s := New(nBuckets)
	s.DisableView = disableView
	if len(metas) > 0 {
		s.MarkViewStale()
	}
	covered := 0
	if ckptName != "" && fs.Exists(ckptName) {
		idx, n, err := loadCheckpoint(fs, ckptName, metas)
		if err == nil {
			s.index = idx
			covered = n
		}
		// A mismatching or corrupt checkpoint is not fatal: fall back to a
		// full rebuild (err == nil only on a usable checkpoint).
	}
	for i, meta := range metas {
		rdr, err := openTable(meta)
		if err != nil {
			return nil, err
		}
		t := &Table{Meta: meta, Reader: rdr}
		if i < covered {
			// Index already has this table's entries; the stale view picks
			// the table up at its lazy rebuild.
			s.tables = append(s.tables, t)
			s.size += meta.Size
			continue
		}
		if err := s.AddTable(t, nil, nil); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// loadCheckpoint parses a checkpoint and validates it against metas,
// returning the index and the number of covered tables.
func loadCheckpoint(fs vfs.FS, name string, metas []manifest.TableMeta) (*hashindex.Index, int, error) {
	data, err := fs.ReadFile(name)
	if err != nil {
		return nil, 0, err
	}
	var magic uint64
	if magic, data, err = codec.Uint64(data); err != nil || magic != ckptMagic {
		return nil, 0, ErrBadCheckpoint
	}
	var n uint64
	if n, data, err = codec.Uvarint(data); err != nil {
		return nil, 0, ErrBadCheckpoint
	}
	if int(n) > len(metas) {
		return nil, 0, ErrBadCheckpoint
	}
	for i := 0; i < int(n); i++ {
		var fn uint64
		if fn, data, err = codec.Uvarint(data); err != nil {
			return nil, 0, ErrBadCheckpoint
		}
		if metas[i].FileNum != fn {
			return nil, 0, ErrBadCheckpoint
		}
	}
	idxBytes, _, err := codec.Bytes(data)
	if err != nil {
		return nil, 0, ErrBadCheckpoint
	}
	idx, err := hashindex.Unmarshal(idxBytes)
	if err != nil {
		return nil, 0, err
	}
	return idx, int(n), nil
}
