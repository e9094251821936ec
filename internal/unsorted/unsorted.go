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
	"sync/atomic"

	"unikv/internal/arena"
	"unikv/internal/codec"
	"unikv/internal/hashindex"
	"unikv/internal/manifest"
	"unikv/internal/record"
	"unikv/internal/sorted"
	"unikv/internal/sortedview"
	"unikv/internal/sstable"
	"unikv/internal/vfs"
)

// ErrBadCheckpoint reports an unusable store checkpoint.
var ErrBadCheckpoint = errors.New("unsorted: checkpoint does not match table set")

// Store is one immutable state of a partition's UnsortedStore: a table list
// in flush order, the hash index over it and the cross-table sorted view.
// A partition version names one Store; readers use it without any lock.
// Every change builds a successor in memory — WithTable for a flush,
// Replace when a merge or scan merge replaces the table set — and the
// partition publishes it in a new version. No successor reads a table:
// only Recover (for tables its checkpoint does not cover) and the first
// scan's BuildView do.
//
// The one structure successors share is the hash index, and only along
// WithTable: a flush inserts the new table's keys under local ID
// len(tables), which the predecessor's Get skips (its table list is one
// shorter, and it still reads those keys from the frozen memtable). Replace
// always starts a fresh index, carrying over only the entries of its own
// tables, so a Store's index never holds an entry for an ID below
// len(tables) that is not about its own table of that ID.
type Store struct {
	tables   []*sorted.Table
	index    *hashindex.Index
	nBuckets int
	size     int64

	// view is the cross-table sorted view (internal/sortedview) over exactly
	// tables, or nil: the view is disabled, or this Store came from Recover,
	// which reads no table for the view's sake (that would void the hash
	// checkpoint's recovery savings) — the first scan builds it (BuildView)
	// and the partition publishes a successor that carries it (WithView).
	view *sortedview.View

	// disableIndex turns off the hash index (the fig11 ablation): lookups
	// probe tables newest-first like a conventional L0. disableView turns
	// off the sorted view (Experiment.SortedViewOff): scans merge one iterator
	// per table.
	disableIndex bool
	disableView  bool

	// stats counts view maintenance across the whole successor chain.
	stats *viewStats
}

// viewStats: builds counts views derived from a maintained one (one per
// WithTable or Replace), rebuilds counts views built by reading every table
// (a lazy BuildView installed by WithView).
type viewStats struct {
	builds, rebuilds atomic.Int64
}

// New creates an empty store whose hash index has nBuckets buckets.
func New(nBuckets int, disableIndex, disableView bool) *Store {
	s := &Store{
		index:        hashindex.New(nBuckets, hashindex.DefaultNumHash),
		nBuckets:     nBuckets,
		disableIndex: disableIndex,
		disableView:  disableView,
		stats:        &viewStats{},
	}
	if !disableView {
		s.view = sortedview.New()
	}
	return s
}

// WithTable returns the successor that has t appended. keys carries the
// table's keys in any order and entries the table's sorted-view cursors in
// table order, when the caller already has them (the flush path collects
// both while writing the table); pass nil to have the table iterated once
// for whatever is missing (Recover). The receiver is unchanged
// except for its hash index, which the successor shares (see Store): at
// most one WithTable successor of a Store may ever be published.
func (s *Store) WithTable(t *sorted.Table, keys [][]byte, entries []sortedview.Entry) (*Store, error) {
	id := len(s.tables)
	if id > 0xffff {
		return nil, fmt.Errorf("unsorted: too many tables (%d)", id)
	}
	// One reader pass covers both the hash index and the view when either
	// is missing its input; no path iterates the table twice. An unbuilt
	// view stays unbuilt: BuildView walks the full table list, new tables
	// included.
	maintainView := s.view != nil
	insertIdx := !s.disableIndex && keys == nil
	collectView := maintainView && entries == nil
	if insertIdx || collectView {
		it := t.Reader.NewIterator()
		var keyArena arena.Bytes // view keys must not pin block buffers
		if collectView {
			entries = make([]sortedview.Entry, 0, t.Reader.Count())
		}
		for ok := it.First(); ok; ok = it.Next() {
			rec := it.Record()
			if insertIdx {
				s.index.Insert(rec.Key, uint16(id))
			}
			if collectView {
				block, pos := it.Position()
				entries = append(entries, sortedview.Entry{
					Key:   keyArena.Copy(rec.Key),
					Seq:   rec.Seq,
					Kind:  rec.Kind,
					Block: int32(block),
					Pos:   int32(pos),
				})
			}
		}
		if err := it.Err(); err != nil {
			return nil, err
		}
	}
	if !s.disableIndex {
		s.index.InsertAll(keys, uint16(id))
	}
	next := *s
	next.tables = append(s.tables[:id:id], t)
	next.size += t.Meta.Size
	if maintainView {
		next.view = s.view.WithTable(t.Reader, entries)
		s.stats.builds.Add(1)
	}
	return &next, nil
}

// Replace returns the store a merge or scan merge commits: head (nil for a
// merge, whose tables drain into the SortedStore) followed by s's tables
// from merged on. keys and entries are head's, collected while it was
// written, as for WithTable. It reads no table: the survivors keep their
// hash and view entries under IDs shifted to their new positions (local IDs
// are positional) in a fresh index and view; the merged tables' entries are
// dropped, and so are any an unpublished WithTable successor of s put in
// the shared index. An unbuilt view stays unbuilt.
func (s *Store) Replace(merged int, head *sorted.Table, keys [][]byte, entries []sortedview.Entry) *Store {
	next := New(s.nBuckets, s.disableIndex, s.disableView)
	next.stats, next.view = s.stats, nil
	var headReader *sstable.Reader
	if head != nil {
		headReader = head.Reader
		next.tables = []*sorted.Table{head}
	}
	first := len(next.tables)
	next.tables = append(next.tables, s.tables[merged:]...)
	for _, t := range next.tables {
		next.size += t.Meta.Size
	}
	if !s.disableIndex {
		next.index.InsertAll(keys, 0)
		if n := len(s.tables); merged < n {
			next.index.Carry(s.index, func(id uint16) (uint16, bool) {
				return uint16(int(id) - merged + first), int(id) >= merged && int(id) < n
			})
		}
	}
	if s.view != nil {
		next.view = s.view.Replace(merged, headReader, entries)
		s.stats.builds.Add(1)
	}
	return next
}

// Get returns the newest record for key across all tables, using the hash
// index. Candidate tables are gathered from the index and probed in
// descending local-ID order — local IDs are assigned in flush order, so
// this is strictly newest-first even when a keyTag collision injects an
// alien entry into the probe sequence. keyTag false positives are resolved
// by the key comparison inside the table read.
func (s *Store) Get(key []byte) (record.Record, bool, error) {
	if s.disableIndex {
		return s.probeAll(key)
	}
	var cand [8]uint16
	n := 0
	overflowed := false
	s.index.Lookup(key, func(tid uint16) bool {
		if int(tid) >= len(s.tables) {
			return false // a successor's flush (see Store): not this store's table
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
		return s.probeAll(key)
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
		if hit {
			return rec, true, nil
		}
	}
	return record.Record{}, false, nil
}

// probeAll looks key up in every table, newest first.
func (s *Store) probeAll(key []byte) (record.Record, bool, error) {
	for i := len(s.tables) - 1; i >= 0; i-- {
		r := s.tables[i].Reader
		if codec.Compare(key, r.Smallest()) < 0 || codec.Compare(key, r.Largest()) > 0 {
			continue // Reader.Get would read block 0 to say so
		}
		rec, hit, err := r.Get(key)
		if err != nil {
			return record.Record{}, false, err
		}
		if hit {
			return rec, true, nil
		}
	}
	return record.Record{}, false, nil
}

// Tables returns the tables in flush order (oldest first).
func (s *Store) Tables() []*sorted.Table { return s.tables }

// NumTables returns the number of tables.
func (s *Store) NumTables() int { return len(s.tables) }

// SizeBytes returns the total table bytes.
func (s *Store) SizeBytes() int64 { return s.size }

// Index exposes the hash index (stats, checkpointing).
func (s *Store) Index() *hashindex.Index { return s.index }

// View returns the cross-table sorted view, or nil when the view is
// disabled or not built yet (see NeedsView). The view is immutable.
func (s *Store) View() *sortedview.View { return s.view }

// NeedsView reports whether the view is enabled but unbuilt: the state
// Recover leaves, which the first scan repairs with BuildView and WithView.
func (s *Store) NeedsView() bool { return !s.disableView && s.view == nil }

// BuildView reads every table and returns the view over them.
func (s *Store) BuildView() (*sortedview.View, error) {
	v := sortedview.New()
	for _, t := range s.tables {
		entries, err := sortedview.Collect(t.Reader)
		if err != nil {
			return nil, err
		}
		v = v.WithTable(t.Reader, entries)
	}
	return v, nil
}

// WithView returns the successor that carries v, a view BuildView made of
// this store's tables.
func (s *Store) WithView(v *sortedview.View) *Store {
	next := *s
	next.view = v
	s.stats.rebuilds.Add(1)
	return &next
}

// ViewStats reports the view's entry count, approximate memory, and the
// incremental-build / rebuild counters (zeros when disabled or unbuilt).
func (s *Store) ViewStats() (entries int, bytes, builds, rebuilds int64) {
	if s.view == nil {
		return 0, 0, s.stats.builds.Load(), s.stats.rebuilds.Load()
	}
	return s.view.Len(), s.view.MemoryBytes(), s.stats.builds.Load(), s.stats.rebuilds.Load()
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
// opened reader. With the view enabled and tables present the view is left
// unbuilt (see Store.view), so recovery reads no table bytes beyond what
// the hash index needs.
func Recover(
	fs vfs.FS,
	nBuckets int,
	metas []manifest.TableMeta,
	ckptName string,
	disableIndex, disableView bool,
	openTable func(manifest.TableMeta) (*sstable.Reader, error),
) (*Store, error) {
	s := New(nBuckets, disableIndex, disableView)
	if len(metas) > 0 {
		s.view = nil
	}
	covered := 0
	if !disableIndex && ckptName != "" && fs.Exists(ckptName) {
		idx, n, err := loadCheckpoint(fs, ckptName, metas)
		if err == nil && idx.SameGeometry(s.index) {
			s.index = idx
			covered = n
		}
		// A mismatching or corrupt checkpoint is not fatal: fall back to a
		// full rebuild. So is one of another geometry (the store reopened
		// with another bucket count): Replace carries entries bucket for
		// bucket, so every index of a successor chain has nBuckets' geometry.
	}
	for i, meta := range metas {
		rdr, err := openTable(meta)
		if err != nil {
			return nil, err
		}
		t := &sorted.Table{Meta: meta, Reader: rdr}
		if i < covered {
			// The index already has this table's entries.
			s.tables = append(s.tables, t)
			s.size += meta.Size
			continue
		}
		if s, err = s.WithTable(t, nil, nil); err != nil {
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
