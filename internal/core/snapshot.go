package core

import (
	"sync/atomic"

	"unikv/internal/codec"
)

// Snapshot is a consistent point-in-time read handle pinned to the global
// sequence number observed at NewSnapshot. Get and Scan see exactly the
// records sequenced at or below the pin, no matter how many writes,
// flushes, merges, splits, or value-log GCs run afterwards.
//
// The pin is physical, not advisory: the handle holds the version each
// partition had at pin time, and a version holds its table readers and
// value logs (version.go), so files the snapshot can still reach outlive
// whatever replaces them. A snapshot read is the live read path run over
// those versions with the pinned sequence; only the live memtable is shared
// with writers — it is append-only and reads filter by sequence.
//
// Snapshot reads bypass the hot ring, which serves latest values only.
// A Snapshot is safe for concurrent use. Close releases the pinned
// versions; DB.Close refuses (ErrSnapshotOpen) while any handle is open.
type Snapshot struct {
	db  *DB
	seq uint64
	id  uint64

	parts  []*version // router order; boundaries as of the pin
	closed atomic.Bool
}

// NewSnapshot pins the current sequence number and returns a consistent
// read handle. The capture holds every partition's lock at once, so the
// pinned sequence and the pinned versions agree: a write is either fully
// visible in a captured memtable or sequenced above the pin, and no captured
// table holds a record above it. The wait is short on either executor: a
// partition lock is held for a WAL append or a commit, never across a table
// build, and the capture itself is one load and one CAS per partition.
func (db *DB) NewSnapshot() (*Snapshot, error) {
	db.snaps.snapMu.Lock()
	defer db.snaps.snapMu.Unlock()
	if db.closed.Load() {
		return nil, ErrClosed
	}
	db.router.RLock()
	parts := db.partitions()
	for _, p := range parts {
		//unikv:allow(lockorder) all-partition capture, the one place that holds more than one partition lock (router order, router.mu held): released below via parts[i].mu.Unlock in reverse order
		p.mu.Lock()
	}
	s := &Snapshot{db: db, seq: db.seq.Load(), parts: make([]*version, len(parts))}
	for i, p := range parts {
		s.parts[i] = p.acquire()
	}
	for i := len(parts) - 1; i >= 0; i-- {
		parts[i].mu.Unlock()
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

// Close releases the snapshot's pinned versions and removes it from the
// DB's registry. Idempotent.
func (s *Snapshot) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	db := s.db
	db.snaps.snapMu.Lock()
	delete(db.snaps.m, s.id)
	db.snaps.snapMu.Unlock()
	for _, v := range s.parts {
		v.release()
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
		if codec.Compare(s.parts[mid].p.lower, key) <= 0 {
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
func (s *Snapshot) Get(key []byte) ([]byte, error) {
	if s.closed.Load() {
		return nil, ErrSnapshotClosed
	}
	s.db.stats.SnapshotGets.Add(1)
	return s.parts[s.partIdxFor(key)].get(key, s.seq, true)
}

// Scan returns up to limit pairs with start <= key < end as of the pinned
// sequence, in key order (same bounds semantics, readahead and result
// ownership as DB.Scan: the pairs one partition returns share one region,
// see KV).
func (s *Snapshot) Scan(start, end []byte, limit int) ([]KV, error) {
	if s.closed.Load() {
		return nil, ErrSnapshotClosed
	}
	s.db.stats.SnapshotScans.Add(1)
	sc := getScanner(s.db, end, limit)
	defer sc.release()
	cursor := start
	for _, v := range s.parts[s.partIdxFor(start):] {
		if err := sc.scan(v, cursor, s.seq); err != nil {
			return nil, err
		}
		if sc.done(v.upper) {
			break
		}
		cursor = v.upper
	}
	return sc.out, nil
}
