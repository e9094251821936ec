package core

import (
	"sync/atomic"

	"unikv/internal/codec"
	"unikv/internal/memtable"
	"unikv/internal/record"
	"unikv/internal/sorted"
	"unikv/internal/unsorted"
)

// Snapshot is a consistent point-in-time read handle pinned to the global
// sequence number observed at NewSnapshot. Get and Scan see exactly the
// records sequenced at or below the pin, no matter how many writes,
// flushes, merges, splits, or value-log GCs run afterwards.
//
// The pin is physical, not advisory: the handle captures each partition's
// memtable queue, UnsortedStore tables (plus the pinned cross-table sorted
// view), SortedStore run, and referenced value logs, taking a reference on
// every table reader and value log. Background rewrites retire superseded
// tables by dropping their own reference (see sstable.Reader.SetRetire),
// so files a snapshot can still reach outlive the retirement and the log
// refcount fences value-log GC the same way. Only the live memtable is
// shared with writers; it is append-only and reads filter by sequence.
//
// Snapshot reads bypass the hot ring, which serves latest values only.
// A Snapshot is safe for concurrent use. Close releases the pinned
// resources; DB.Close refuses (ErrSnapshotOpen) while any handle is open.
type Snapshot struct {
	db  *DB
	seq uint64
	id  uint64

	parts  []snapPart
	closed atomic.Bool
}

// snapPart is the pinned read state of one partition, captured under the
// partition's read lock at pin time.
type snapPart struct {
	id           uint32
	lower, upper []byte

	// tiers are the pinned read sources.
	//
	// mem is the partition's live memtable at pin time — shared with the
	// writer. It only grows, and every record written after the pin
	// carries a larger sequence (assigned under the partition lock), so
	// sequence filtering makes it immutable from the snapshot's view.
	// imm is the frozen memtable queue at pin time: frozen tables are never
	// mutated; flush only drops them from the live queue.
	// uns is the UnsortedStore table set at pin time, flush order; every
	// reader is Ref'd. view is the pinned cross-table sorted view over
	// exactly those tables.
	// srt is a private SortedStore over the pinned sorted run: the live
	// store's iterator reads its mutable table slice, so the snapshot owns
	// its own copy. Every reader is Ref'd (srtTables mirrors the set for
	// release and backup).
	tiers
	srtTables []*sorted.Table
	// logs are the value logs this snapshot retains (via DB.logRefs, the
	// same refcount vlog GC consults before removing a file); logSizes
	// captures each log's size at pin time — every pinned pointer lies
	// below it, which bounds the backup copy.
	logs     []uint32
	logSizes map[uint32]int64
}

// NewSnapshot pins the current sequence number and returns a consistent
// read handle. The capture holds every partition's read lock at once, so
// the pinned sequence and the captured structures agree: a write is either
// fully visible in a captured memtable or sequenced above the pin.
func (db *DB) NewSnapshot() (*Snapshot, error) {
	db.snaps.snapMu.Lock()
	defer db.snaps.snapMu.Unlock()
	if db.closed.Load() {
		return nil, ErrClosed
	}
	db.router.RLock()
	parts := db.router.parts
	for _, p := range parts {
		//unikv:allow(lockorder) all-partition capture: released below via parts[i].mu.RUnlock in reverse order
		p.mu.RLock()
	}
	seq := db.seq.Load()
	s := &Snapshot{db: db, seq: seq, parts: make([]snapPart, 0, len(parts))}
	for _, p := range parts {
		sp := snapPart{
			id:    p.id,
			lower: append([]byte(nil), p.lower...),
			tiers: tiers{
				mem:  p.mem,
				imm:  append([]*memtable.Memtable(nil), p.imm...),
				uns:  append([]*unsorted.Table(nil), p.uns.Tables()...),
				view: p.uns.ScanView(), // may lazily rebuild under viewMu; nil → per-table
				srt:  sorted.New(),
			},
			srtTables: append([]*sorted.Table(nil), p.srt.Tables()...),
			logs:      p.logsSliceLocked(),
		}
		if p.upper != nil {
			sp.upper = append([]byte(nil), p.upper...)
		}
		for _, t := range sp.uns {
			t.Reader.Ref()
		}
		for _, t := range sp.srtTables {
			t.Reader.Ref()
		}
		sp.srt.ReplaceAll(sp.srtTables)
		sp.logSizes = make(map[uint32]int64, len(sp.logs))
		for _, n := range sp.logs {
			sp.logSizes[n] = db.vl.SizeOf(n)
		}
		// logRefs.mu ranks after partition.mu, so retaining under the read
		// locks is legal — and necessary: a GC between unlock and retain
		// could otherwise release a pinned log's last reference.
		db.retainLogs(sp.logs)
		s.parts = append(s.parts, sp)
	}
	for i := len(parts) - 1; i >= 0; i-- {
		parts[i].mu.RUnlock()
	}
	db.router.RUnlock()

	s.id = db.snaps.nextID
	db.snaps.nextID++
	db.snaps.m[s.id] = s
	db.stats.Snapshots.Add(1)
	return s, nil
}

// snapshotGauges reports the open-handle count and the smallest pinned
// sequence (0 when none are open) — the min-seq table stats expose.
func (db *DB) snapshotGauges() (open int, minSeq uint64) {
	db.snaps.snapMu.Lock()
	defer db.snaps.snapMu.Unlock()
	for _, s := range db.snaps.m {
		if open == 0 || s.seq < minSeq {
			minSeq = s.seq
		}
		open++
	}
	return open, minSeq
}

// Seq returns the pinned sequence number.
func (s *Snapshot) Seq() uint64 { return s.seq }

// Close releases the snapshot's pinned tables and value logs and removes
// it from the DB's registry. Idempotent.
func (s *Snapshot) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	db := s.db
	db.snaps.snapMu.Lock()
	delete(db.snaps.m, s.id)
	db.snaps.snapMu.Unlock()
	for i := range s.parts {
		sp := &s.parts[i]
		for _, t := range sp.uns {
			t.Reader.Close()
		}
		for _, t := range sp.srtTables {
			t.Reader.Close()
		}
		db.releaseLogs(sp.logs)
	}
	return nil
}

// partIdxFor returns the index of the pinned partition owning key (largest
// lower bound <= key). Pinned boundaries are immutable, so no covers/retry
// dance is needed.
func (s *Snapshot) partIdxFor(key []byte) int {
	lo, hi := 0, len(s.parts)
	for lo < hi {
		mid := (lo + hi) / 2
		if codec.Compare(s.parts[mid].lower, key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return lo - 1
}

// Get returns the value key had at the pinned sequence, or ErrNotFound.
// The lookup never consults the hot ring (latest values only) or the
// UnsortedStore hash index (rebuilt in place by merges): captured tables
// are probed newest-first directly.
func (s *Snapshot) Get(key []byte) ([]byte, error) {
	if s.closed.Load() {
		return nil, ErrSnapshotClosed
	}
	s.db.stats.SnapshotGets.Add(1)
	sp := &s.parts[s.partIdxFor(key)]
	rec, ok, err := sp.get(key, s.seq)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrNotFound
	}
	return s.resolve(rec)
}

// get runs the tiered lookup over the pinned structures. Captured tables
// hold only records at or below the pin by construction; the filter stays
// on every tier defensively.
func (sp *snapPart) get(key []byte, seq uint64) (record.Record, bool, error) {
	if rec, ok := sp.mem.GetAtSeq(key, seq); ok {
		return rec, true, nil
	}
	for i := len(sp.imm) - 1; i >= 0; i-- {
		if rec, ok := sp.imm[i].GetAtSeq(key, seq); ok {
			return rec, true, nil
		}
	}
	// Unsorted tables newest-first: each holds one version per key, and a
	// newer table's version always shadows an older one's.
	for i := len(sp.uns) - 1; i >= 0; i-- {
		rec, hit, err := sp.uns[i].Reader.Get(key)
		if err != nil {
			return record.Record{}, false, err
		}
		if hit && rec.Seq <= seq {
			return rec, true, nil
		}
	}
	rec, hit, err := sp.srt.Get(key)
	if err != nil {
		return record.Record{}, false, err
	}
	if hit && rec.Seq <= seq {
		return rec, true, nil
	}
	return record.Record{}, false, nil
}

// resolve materializes a pinned record into its user value. Pointer
// dereferences go to the value log as usual — the pinned log refcount
// guarantees the segment still exists.
func (s *Snapshot) resolve(rec record.Record) ([]byte, error) {
	switch rec.Kind {
	case record.KindDelete:
		return nil, ErrNotFound
	case record.KindSet:
		return append([]byte(nil), rec.Value...), nil
	case record.KindSetPtr:
		ptr, err := record.DecodePtr(rec.Value)
		if err != nil {
			return nil, err
		}
		return s.db.vl.ReadHinted(ptr, true)
	}
	return nil, codec.ErrCorrupt
}

// Scan returns up to limit pairs with start <= key < end as of the pinned
// sequence, in key order (same bounds semantics, readahead and result
// ownership as DB.Scan).
func (s *Snapshot) Scan(start, end []byte, limit int) ([]KV, error) {
	if s.closed.Load() {
		return nil, ErrSnapshotClosed
	}
	s.db.stats.SnapshotScans.Add(1)
	sc := newScanner(s.db, end, limit)
	cursor := start
	for i := s.partIdxFor(start); i < len(s.parts); i++ {
		sp := &s.parts[i]
		if err := sp.scan(sc, cursor, s.seq); err != nil {
			return nil, err
		}
		if sc.done(sp.upper) {
			break
		}
		cursor = sp.upper
	}
	return sc.out, nil
}

// scan appends this pinned partition's pairs from start on to sc: the
// merge DB.Scan runs, over the pinned sources, bounded by the pinned
// sequence. The pinned log refcount keeps every pointed-to log in place.
func (sp *snapPart) scan(sc *scanner, start []byte, seq uint64) error {
	return sc.scan(sp.tiers, start, seq)
}
