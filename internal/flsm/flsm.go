// Package flsm implements a fragmented LSM-tree — the PebblesDB-class
// baseline. Like PebblesDB's guarded levels, compaction never rewrites the
// next level: when level i accumulates K sorted runs they are merge-sorted
// into a single new run *appended* to level i+1. Write amplification drops
// (each key is rewritten once per level instead of once per overlap), but
// levels hold multiple overlapping runs, so reads probe more tables and
// scans must merge more iterators — exactly the trade-off the paper's
// evaluation attributes to PebblesDB.
package flsm

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"unikv/internal/codec"
	"unikv/internal/memtable"
	"unikv/internal/mergeiter"
	"unikv/internal/record"
	"unikv/internal/sstable"
	"unikv/internal/vfs"
	"unikv/internal/wal"
)

// ErrNotFound is returned by Get for absent keys.
var ErrNotFound = errors.New("flsm: key not found")

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("flsm: closed")

// NumLevels is the fixed level count.
const NumLevels = 7

// Config tunes the tree.
type Config struct {
	Name string
	// MemtableSize flushes the write buffer at this many bytes.
	MemtableSize int64
	// RunsPerLevel compacts a level once it holds this many sorted runs.
	RunsPerLevel int
	// TargetTableSize bounds output tables within a run.
	TargetTableSize int64
	// BloomBitsPerKey configures per-table Bloom filters.
	BloomBitsPerKey int
	// BlockSize overrides the SSTable block size.
	BlockSize int
	// SyncWrites fsyncs the WAL per write.
	SyncWrites bool
	// DisableWAL skips write-ahead logging.
	DisableWAL bool
	// FS overrides the file system.
	FS vfs.FS
}

// ConfigPebblesDB approximates PebblesDB at the given scale.
func ConfigPebblesDB(scale float64) Config {
	return Config{
		Name:            "pebblesdb",
		MemtableSize:    int64(4 << 20 * scale),
		RunsPerLevel:    4,
		TargetTableSize: int64(2 << 20 * scale),
		BloomBitsPerKey: 10,
	}
}

func (c Config) sanitize() Config {
	if c.MemtableSize <= 0 {
		c.MemtableSize = 4 << 20
	}
	if c.RunsPerLevel <= 0 {
		c.RunsPerLevel = 4
	}
	if c.TargetTableSize <= 0 {
		c.TargetTableSize = 2 << 20
	}
	if c.FS == nil {
		c.FS = vfs.NewOS()
	}
	return c
}

// table is one SSTable file.
type table struct {
	fileNum  uint64
	size     int64
	count    int
	smallest []byte
	largest  []byte
	rdr      *sstable.Reader
}

// run is one sorted run: key-ordered non-overlapping tables.
type run []*table

// DB is a fragmented LSM-tree store.
type DB struct {
	cfg Config
	fs  vfs.FS
	dir string

	mu       sync.Mutex
	mem      *memtable.Memtable
	logBuf   []byte // WAL record encoding scratch, reused under mu
	logw     *wal.Writer
	walNum   uint64
	levels   [NumLevels][]run // runs newest-first within a level
	nextFile uint64
	seq      uint64

	flushes     atomic.Int64
	compactions atomic.Int64
	closed      bool
}

// Open opens (creating if necessary) a store in dir.
func Open(dir string, cfg Config) (*DB, error) {
	cfg = cfg.sanitize()
	db := &DB{cfg: cfg, fs: cfg.FS, dir: dir, nextFile: 1}
	if err := db.fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	db.mem = memtable.New()
	if db.fs.Exists(db.versionName()) {
		if err := db.loadVersion(); err != nil {
			return nil, err
		}
	}
	if db.walNum != 0 && db.fs.Exists(db.walName(db.walNum)) {
		if err := db.replayWAL(); err != nil {
			return nil, err
		}
	}
	if !db.mem.Empty() {
		if err := db.flushLocked(); err != nil {
			return nil, err
		}
	}
	if !cfg.DisableWAL {
		if err := db.newWALLocked(); err != nil {
			return nil, err
		}
		if err := db.saveVersion(); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func (db *DB) versionName() string { return filepath.Join(db.dir, "VERSION") }
func (db *DB) walName(n uint64) string {
	return filepath.Join(db.dir, fmt.Sprintf("%08d.wal", n))
}
func (db *DB) tableName(n uint64) string {
	return filepath.Join(db.dir, fmt.Sprintf("%08d.sst", n))
}

// Put inserts or overwrites a key.
func (db *DB) Put(key, value []byte) error {
	return db.apply(record.Record{Key: key, Kind: record.KindSet, Value: value})
}

// Delete writes a tombstone.
func (db *DB) Delete(key []byte) error {
	return db.apply(record.Record{Key: key, Kind: record.KindDelete})
}

func (db *DB) apply(rec record.Record) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	db.seq++
	rec.Seq = db.seq
	if db.logw != nil {
		db.logBuf = rec.Encode(db.logBuf[:0])
		if err := db.logw.AddRecord(db.logBuf); err != nil {
			return err
		}
		if db.cfg.SyncWrites {
			if err := db.logw.Sync(); err != nil {
				return err
			}
		}
	}
	db.mem.Put(rec)
	if db.mem.Size() >= db.cfg.MemtableSize {
		if err := db.flushLocked(); err != nil {
			return err
		}
		if err := db.maybeCompactLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Get probes the memtable, then every run of every level, newest first —
// the fragmented design's read cost.
func (db *DB) Get(key []byte) ([]byte, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	if rec, ok := db.mem.Get(key); ok {
		return resolve(rec)
	}
	for lev := 0; lev < NumLevels; lev++ {
		for _, r := range db.levels[lev] {
			t := findTable(r, key)
			if t == nil || !t.rdr.MayContain(key) {
				continue
			}
			rec, ok, err := t.rdr.Get(key)
			if err != nil {
				return nil, err
			}
			if ok {
				return resolve(rec)
			}
		}
	}
	return nil, ErrNotFound
}

func resolve(rec record.Record) ([]byte, error) {
	if rec.Kind == record.KindDelete {
		return nil, ErrNotFound
	}
	return append([]byte(nil), rec.Value...), nil
}

func findTable(r run, key []byte) *table {
	lo, hi := 0, len(r)
	for lo < hi {
		mid := (lo + hi) / 2
		if codec.Compare(r[mid].largest, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r) || codec.Compare(key, r[lo].smallest) < 0 {
		return nil
	}
	return r[lo]
}

// KV is one scan result.
type KV struct {
	Key   []byte
	Value []byte
}

// Scan merges the memtable and every run of every level (many more
// iterators than a leveled tree — the fragmented design's scan cost).
func (db *DB) Scan(start, end []byte, limit int) ([]KV, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	if limit <= 0 && end == nil {
		limit = 1 << 30
	}
	var iters []mergeiter.RecIter
	iters = append(iters, db.mem.NewIterator())
	for lev := 0; lev < NumLevels; lev++ {
		for _, r := range db.levels[lev] {
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

// Flush forces the memtable to L0.
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if db.mem.Empty() {
		return nil
	}
	if err := db.flushLocked(); err != nil {
		return err
	}
	return db.maybeCompactLocked()
}

// Close flushes and releases everything.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	var first error
	if !db.mem.Empty() {
		if err := db.flushLocked(); err != nil {
			first = err
		}
	}
	if db.logw != nil {
		db.logw.Sync()
		db.logw.Close()
		db.logw = nil
	}
	for lev := range db.levels {
		for _, r := range db.levels[lev] {
			for _, t := range r {
				t.rdr.Close()
			}
		}
	}
	db.closed = true
	return first
}

// Stats reports tree shape.
type Stats struct {
	Name        string
	Flushes     int64
	Compactions int64
	RunsPerLev  []int
}

// Stats returns a snapshot.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := Stats{Name: db.cfg.Name, Flushes: db.flushes.Load(), Compactions: db.compactions.Load()}
	for lev := range db.levels {
		s.RunsPerLev = append(s.RunsPerLev, len(db.levels[lev]))
	}
	return s
}
