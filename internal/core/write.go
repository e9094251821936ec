package core

import (
	"errors"

	"unikv/internal/record"
)

// ErrKeyTooLarge guards the uint16/uint32 fields in on-disk formats.
var ErrKeyTooLarge = errors.New("unikv: key or value too large")

const (
	maxKeyLen   = 1 << 16
	maxValueLen = 1 << 30
)

// Put inserts or overwrites key with value.
func (db *DB) Put(key, value []byte) error {
	db.stats.Puts.Add(1)
	return db.apply(key, value, record.KindSet)
}

// Delete removes key (writes a tombstone).
func (db *DB) Delete(key []byte) error {
	db.stats.Deletes.Add(1)
	return db.apply(key, nil, record.KindDelete)
}

// apply routes one write to its partition, retrying if a concurrent split
// moves the boundary, and runs the split the partition requests.
func (db *DB) apply(key, value []byte, kind record.Kind) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.degradedErr(); err != nil {
		return err
	}
	if len(key) == 0 || len(key) >= maxKeyLen || len(value) >= maxValueLen {
		return ErrKeyTooLarge
	}
	// The record borrows the caller's slices: the WAL encodes them and the
	// memtable copies them into its own slabs before apply returns, so the
	// engine retains nothing of the caller's.
	rec := record.Record{Key: key, Kind: kind, Value: value}
	for tries := 0; tries < maxRouteRetries; tries++ {
		p := db.partitionFor(key)
		if err := db.throttle(p); err != nil {
			return err
		}
		p.mu.Lock()
		if done := p.splitting; done != nil {
			p.mu.Unlock()
			<-done
			continue
		}
		if !p.cur.Load().covers(key) {
			p.mu.Unlock()
			continue
		}
		// Quarantine is checked after routing settles: only writes bound
		// for the damaged partition fail; every other partition accepts.
		if err := p.quarantineErr(); err != nil {
			p.mu.Unlock()
			return err
		}
		// Sequence under the partition lock: a snapshot pins by loading
		// db.seq while holding every partition's read lock, so any write
		// sequenced before the pin is already in its memtable and any write
		// sequenced after carries a larger seq. Assigning before the lock
		// would let a pinned snapshot admit an in-flight write it can later
		// observe appearing in the shared memtable.
		rec.Seq = db.seq.Add(1)
		wantSplit, err := p.put(rec)
		p.mu.Unlock()
		// Invalidate after the write applied, before it is acknowledged —
		// the hot ring's staleness protocol (also on error: the write may
		// have partially applied, and dropping a hot entry is always safe).
		db.hot.Invalidate(key)
		if err != nil {
			return classified(err)
		}
		if wantSplit {
			return classified(db.splitPartition(p))
		}
		return nil
	}
	return classified(ErrRouterInconsistent)
}

// Flush forces the partition memtables to disk (tests, benchmarks, and
// clean shutdown sequencing). flushMu excludes concurrent background flush
// jobs while the immutable queue is drained.
func (db *DB) Flush() error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.degradedErr(); err != nil {
		return err
	}
	for _, p := range db.partitions() {
		if p.quarantine.Load() != nil {
			continue // quarantined partitions hold still until repair
		}
		p.flushMu.Lock()
		p.mu.Lock()
		err := p.drainImmLocked()
		if err == nil {
			err = p.flushLocked()
		}
		p.mu.Unlock()
		p.flushMu.Unlock()
		if err != nil {
			return classified(err)
		}
		db.checkMaintenance(p) // the versions this published may arm a trigger
	}
	return nil
}

// CompactAll drains every partition's UnsortedStore into its SortedStore
// (benchmarks use it to measure steady-state reads). maintMu excludes
// concurrent structural jobs, flushMu concurrent flush jobs.
func (db *DB) CompactAll() error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.degradedErr(); err != nil {
		return err
	}
	for _, p := range db.partitions() {
		if p.quarantine.Load() != nil {
			continue // merging corrupt inputs would launder the damage
		}
		p.maintMu.Lock()
		p.flushMu.Lock()
		p.mu.Lock()
		err := p.drainImmLocked()
		if err == nil {
			err = p.flushLocked()
		}
		if err == nil {
			err = p.mergeLocked()
		}
		p.mu.Unlock()
		p.flushMu.Unlock()
		p.maintMu.Unlock()
		if err != nil {
			return classified(err)
		}
		db.afterCommit(p, false)
	}
	return nil
}
