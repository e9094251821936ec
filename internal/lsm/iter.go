package lsm

import (
	"unikv/internal/codec"
	"unikv/internal/mergeiter"
	"unikv/internal/record"
	"unikv/internal/sstable"
)

// runIter concatenates a run's non-overlapping tables into one stream,
// opening a table only when the stream reaches it.
type runIter struct {
	tables run
	ti     int
	it     *sstable.Iterator
	err    error
}

func newRunIter(r run) *runIter { return &runIter{tables: r, ti: -1} }

func (l *runIter) Valid() bool { return l.it != nil && l.it.Valid() }

func (l *runIter) Record() record.Record { return l.it.Record() }

func (l *runIter) Err() error { return l.err }

func (l *runIter) First() bool {
	l.ti = -1
	l.it = nil
	return l.Next()
}

func (l *runIter) Next() bool {
	if l.err != nil {
		return false
	}
	if l.it != nil && l.it.Next() {
		return true
	}
	for {
		if l.it != nil {
			if err := l.it.Err(); err != nil {
				l.err = err
				return false
			}
		}
		l.ti++
		if l.ti >= len(l.tables) {
			l.it = nil
			return false
		}
		l.it = l.tables[l.ti].rdr.NewIterator()
		if l.it.First() {
			l.tables[l.ti].accesses.Add(1)
			return true
		}
	}
}

// Seek skips every table that lies wholly below target without reading it.
func (l *runIter) Seek(target []byte) bool {
	if l.err != nil {
		return false
	}
	l.ti = seekTable(l.tables, target)
	if l.ti >= len(l.tables) {
		l.it = nil
		return false
	}
	t := l.tables[l.ti]
	l.it = t.rdr.NewIterator()
	t.accesses.Add(1)
	if l.it.Seek(target) {
		return true
	}
	if err := l.it.Err(); err != nil {
		l.err = err
		return false
	}
	return l.Next()
}

// KV is one scan result.
type KV struct {
	Key   []byte
	Value []byte
}

// Scan returns up to limit pairs with start <= key < end, merging the
// memtable with one iterator per run — LevelDB's iterator stack, and
// under tiering the many-run merge that makes PebblesDB's scans costly.
func (db *DB) Scan(start, end []byte, limit int) ([]KV, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	if limit <= 0 && end == nil {
		limit = 1 << 30
	}
	iters := []mergeiter.RecIter{db.mem.NewIterator()}
	for _, runs := range db.levels {
		for _, r := range runs {
			iters = append(iters, newRunIter(r))
		}
	}
	d := mergeiter.NewDedup(mergeiter.New(iters))
	var out []KV
	for ok := d.Seek(start); ok; ok = d.Next() {
		rec := d.Record()
		if end != nil && codec.Compare(rec.Key, end) >= 0 {
			break
		}
		if rec.Kind == record.KindDelete {
			continue
		}
		out = append(out, KV{
			Key:   append([]byte(nil), rec.Key...),
			Value: append([]byte(nil), rec.Value...),
		})
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
