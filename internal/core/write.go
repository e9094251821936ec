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

// Put inserts or overwrites key with value: a batch of one, held on the
// stack. The record borrows the caller's slices — the WAL encodes them and
// the memtable copies them into its own slabs before Put returns, so the
// engine retains nothing of the caller's.
func (db *DB) Put(key, value []byte) error {
	recs := [1]record.Record{{Key: key, Kind: record.KindSet, Value: value}}
	return db.write(recs[:])
}

// Delete removes key (writes a tombstone).
func (db *DB) Delete(key []byte) error {
	recs := [1]record.Record{{Key: key, Kind: record.KindDelete}}
	return db.write(recs[:])
}

// write is the one write path, behind Put, Delete and ApplyBatch: it routes
// recs to their partitions, retrying if a concurrent split moves a boundary,
// and applies each partition's share — in queue order — with one WAL
// record. Operations are sequenced in queue order; per-key ordering is
// always preserved (a key maps to exactly one partition).
func (db *DB) write(recs []record.Record) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.degradedErr(); err != nil {
		return err
	}
	for i := range recs {
		if len(recs[i].Key) == 0 || len(recs[i].Key) >= maxKeyLen || len(recs[i].Value) >= maxValueLen {
			return ErrKeyTooLarge
		}
	}
	for i := range recs {
		if recs[i].Kind == record.KindDelete {
			db.stats.Deletes.Add(1)
		} else {
			db.stats.Puts.Add(1)
		}
	}
	pending := recs
	retries := 0
	for len(pending) > 0 {
		p := db.partitionFor(pending[0].Key)
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
		if !v.covers(pending[0].Key) {
			p.mu.Unlock()
			if retries++; retries >= maxRouteRetries {
				return classified(ErrRouterInconsistent)
			}
			db.awaitRoutes()
			continue // split raced; re-route
		}
		// Quarantine is checked after routing settles: only writes bound
		// for the damaged partition fail; every other partition accepts.
		if err := p.quarantineErr(); err != nil {
			p.mu.Unlock()
			return err
		}
		retries = 0 // progress on a partition resets the budget
		// Split pending into this partition's ops (order preserved) and
		// the rest. A batch that stays inside one partition — every Put,
		// every lone put off the wire — is sequenced and applied where it
		// lies.
		i := 1 // pending[0] is covered
		for i < len(pending) && v.covers(pending[i].Key) {
			i++
		}
		mine, rest := pending, []record.Record(nil)
		if i < len(pending) {
			mine = append([]record.Record(nil), pending[:i]...)
			for _, op := range pending[i:] {
				if v.covers(op.Key) {
					mine = append(mine, op)
				} else {
					rest = append(rest, op)
				}
			}
		}
		// Sequence under the partition lock: a snapshot pins by loading
		// db.seq while holding every partition's lock, so any write
		// sequenced before the pin is already in its memtable and any write
		// sequenced after carries a larger seq. Assigning before the lock
		// would let a pinned snapshot admit an in-flight write it can later
		// observe appearing in the shared memtable.
		for i := range mine {
			mine[i].Seq = db.seq.Add(1)
		}
		err := p.putBatch(mine)
		froze := p.cur.Load() != v
		p.mu.Unlock()
		// Invalidate after the write applied, before it is acknowledged —
		// the hot ring's staleness protocol (also on error: the write may
		// have partially applied, and dropping a hot entry is always safe).
		for i := range mine {
			db.hot.Invalidate(mine[i].Key)
		}
		if err := db.written(p, froze, err); err != nil {
			return err
		}
		pending = rest
	}
	return nil
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
