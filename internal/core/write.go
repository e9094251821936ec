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
// moves the boundary.
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
		v := p.cur.Load()
		if !v.covers(key) {
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
		// db.seq while holding every partition's lock, so any write
		// sequenced before the pin is already in its memtable and any write
		// sequenced after carries a larger seq. Assigning before the lock
		// would let a pinned snapshot admit an in-flight write it can later
		// observe appearing in the shared memtable.
		rec.Seq = db.seq.Add(1)
		err := p.put(rec)
		froze := p.cur.Load() != v
		p.mu.Unlock()
		// Invalidate after the write applied, before it is acknowledged —
		// the hot ring's staleness protocol (also on error: the write may
		// have partially applied, and dropping a hot entry is always safe).
		db.hot.Invalidate(key)
		return db.written(p, froze, err)
	}
	return classified(ErrRouterInconsistent)
}

// written ends a write to p that returned err, after p.mu is released. A
// write publishes a version only by freezing a memtable (froze: the version
// moved under the writer's lock), and that is where the write path hands
// over to maintenance: the pool gets a flush queued, a store without workers
// runs the flush — and what hangs off it — here, and its error is this
// write's. The write's own error comes first.
func (db *DB) written(p *partition, froze bool, err error) error {
	if froze {
		if merr := db.checkMaintenance(p, memFrozen); err == nil {
			err = merr
		}
	}
	return classified(err)
}

// Flush forces the partition memtables to disk (tests, benchmarks, and
// clean shutdown sequencing).
func (db *DB) Flush() error {
	return db.flushEach(func(p *partition) error {
		if err := p.flushAll(); err != nil {
			return err
		}
		return db.checkMaintenance(p, userFlushed) // the versions this published may arm a trigger
	})
}

// CompactAll drains every partition's UnsortedStore into its SortedStore
// (benchmarks use it to measure steady-state reads). maintMu excludes
// concurrent structural jobs.
func (db *DB) CompactAll() error {
	return db.flushEach(func(p *partition) error {
		p.maintMu.Lock()
		err := p.flushAll()
		if err == nil {
			v := p.acquire()
			err = p.merge(v)
			v.release()
		}
		p.maintMu.Unlock()
		if err == nil {
			db.afterCommit(p, userFlushed)
		}
		return err
	})
}

// flushEach runs a user-driven maintenance step on every partition that
// takes one; quarantined partitions hold still until repair.
func (db *DB) flushEach(step func(*partition) error) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.degradedErr(); err != nil {
		return err
	}
	for _, p := range db.partitions() {
		if p.quarantine.Load() != nil {
			continue
		}
		if err := step(p); err != nil {
			return classified(err)
		}
	}
	return nil
}
