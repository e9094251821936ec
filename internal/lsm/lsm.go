// Package lsm implements the LSM-tree baselines the paper compares UniKV
// against: the leveled tree of LevelDB, RocksDB and HyperLevelDB, and the
// tiered (fragmented) tree of PebblesDB. It reuses UniKV's memtable, WAL
// and SSTable substrates, and the two shapes share every path except the
// compaction policy.
//
// Each level holds sorted runs, newest first; a run is key-ordered,
// non-overlapping tables with Bloom filters. A flush adds a one-table run
// to L0. Under leveling (Config.RunsPerLevel == 0) each deeper level holds
// at most one run within an exponentially growing size budget, and a
// compaction merges its inputs with the next level's overlapping tables —
// the multi-level reads and compaction rewrites UniKV's unified index is
// built to avoid. Under tiering (RunsPerLevel = K > 0) a level compacts
// once it holds K runs, merging them into one new run prepended to the
// next level without rewriting that level's runs: each key is rewritten
// once per level, but reads probe and scans merge more runs.
//
// Config presets approximate LevelDB (small write buffer, 10× level
// fanout), RocksDB (larger buffers and files), HyperLevelDB (higher L0
// tolerance, lazier compaction) and PebblesDB (tiering) at a chosen scale.
// They reproduce those systems' architectural behaviours, not vendor
// tuning.
package lsm

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"sync/atomic"

	"unikv/internal/codec"
	"unikv/internal/memtable"
	"unikv/internal/record"
	"unikv/internal/sstable"
	"unikv/internal/vfs"
	"unikv/internal/wal"
)

// ErrNotFound is returned by Get for absent keys.
var ErrNotFound = errors.New("lsm: key not found")

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("lsm: closed")

// NumLevels is the fixed level count (L0..L6), as in LevelDB.
const NumLevels = 7

// Config tunes the tree.
type Config struct {
	// Name labels the preset in experiment output.
	Name string
	// MemtableSize flushes the write buffer at this many bytes.
	MemtableSize int64
	// L0CompactTrigger compacts L0 into L1 at this many L0 runs.
	L0CompactTrigger int
	// RunsPerLevel selects the compaction policy: 0 is leveling, where a
	// deeper level compacts past its size budget; K > 0 is tiering, where
	// a deeper level compacts once it holds K runs.
	RunsPerLevel int
	// LevelSizeBase is L1's size budget under leveling; level L's is
	// LevelSizeBase × LevelMultiplier^(L-1).
	LevelSizeBase int64
	// LevelMultiplier is the per-level fanout (10 in LevelDB).
	LevelMultiplier int
	// TargetTableSize bounds compaction output tables.
	TargetTableSize int64
	// BloomBitsPerKey configures per-table Bloom filters (10 ≈ 1 % FPR).
	BloomBitsPerKey int
	// BlockSize overrides the SSTable block size.
	BlockSize int
	// SyncWrites fsyncs the WAL per write.
	SyncWrites bool
	// FS overrides the file system.
	FS vfs.FS
}

// ConfigLevelDB approximates LevelDB v1.20 defaults, scaled by scale
// (1.0 = the real defaults; benches use small fractions).
func ConfigLevelDB(scale float64) Config {
	return Config{
		Name:             "leveldb",
		MemtableSize:     int64(4 << 20 * scale),
		L0CompactTrigger: 4,
		LevelSizeBase:    int64(10 << 20 * scale),
		LevelMultiplier:  10,
		TargetTableSize:  int64(2 << 20 * scale),
		BloomBitsPerKey:  10,
	}
}

// ConfigRocksDB approximates RocksDB defaults at the given scale: bigger
// write buffer and files, same leveled shape.
func ConfigRocksDB(scale float64) Config {
	return Config{
		Name:             "rocksdb",
		MemtableSize:     int64(8 << 20 * scale),
		L0CompactTrigger: 4,
		LevelSizeBase:    int64(32 << 20 * scale),
		LevelMultiplier:  10,
		TargetTableSize:  int64(8 << 20 * scale),
		BloomBitsPerKey:  10,
	}
}

// ConfigHyperLevelDB approximates HyperLevelDB: LevelDB with a much higher
// L0 tolerance and lazier compaction, trading read cost for write
// throughput.
func ConfigHyperLevelDB(scale float64) Config {
	return Config{
		Name:             "hyperleveldb",
		MemtableSize:     int64(4 << 20 * scale),
		L0CompactTrigger: 8,
		LevelSizeBase:    int64(20 << 20 * scale),
		LevelMultiplier:  10,
		TargetTableSize:  int64(4 << 20 * scale),
		BloomBitsPerKey:  10,
	}
}

// ConfigPebblesDB approximates PebblesDB: LevelDB's buffers with tiered
// compaction, four runs per level, trading read and scan cost for write
// amplification.
func ConfigPebblesDB(scale float64) Config {
	return Config{
		Name:             "pebblesdb",
		MemtableSize:     int64(4 << 20 * scale),
		L0CompactTrigger: 4,
		RunsPerLevel:     4,
		TargetTableSize:  int64(2 << 20 * scale),
		BloomBitsPerKey:  10,
	}
}

func (c Config) sanitize() Config {
	if c.MemtableSize <= 0 {
		c.MemtableSize = 4 << 20
	}
	if c.L0CompactTrigger <= 0 {
		c.L0CompactTrigger = 4
	}
	if c.LevelSizeBase <= 0 {
		c.LevelSizeBase = 10 << 20
	}
	if c.LevelMultiplier <= 0 {
		c.LevelMultiplier = 10
	}
	if c.TargetTableSize <= 0 {
		c.TargetTableSize = 2 << 20
	}
	if c.FS == nil {
		c.FS = vfs.NewOS()
	}
	return c
}

// table is one on-disk SSTable plus access accounting for the
// access-frequency experiment (fig2).
type table struct {
	fileNum  uint64
	size     int64
	count    int
	smallest []byte
	largest  []byte
	rdr      *sstable.Reader
	accesses atomic.Int64
}

// run is one sorted run: key-ordered, non-overlapping tables.
type run []*table

// DB is an LSM-tree store.
type DB struct {
	cfg Config
	fs  vfs.FS
	dir string

	mu       sync.RWMutex
	mem      *memtable.Memtable
	logBuf   []byte // WAL record encoding scratch, reused under mu
	logw     *wal.Writer
	walNum   uint64
	levels   [NumLevels][]run // runs newest first
	nextFile uint64
	seq      uint64
	cursor   [NumLevels][]byte // leveled round-robin compaction cursors

	flushes     atomic.Int64
	compactions atomic.Int64
	closed      bool
	// saveErr is the first failed VERSION save, LevelDB's bg_error_: the
	// tree in memory has moved past what VERSION names, so every later
	// write fails with it until the store is reopened. Reads go on.
	saveErr error
}

// Open opens (creating if necessary) a store in dir.
func Open(dir string, cfg Config) (*DB, error) {
	cfg = cfg.sanitize()
	db := &DB{cfg: cfg, fs: cfg.FS, dir: dir, nextFile: 1, mem: memtable.New()}
	if err := db.fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	if db.fs.Exists(db.versionName()) {
		if err := db.loadVersion(); err != nil {
			return nil, err
		}
		db.sweepOrphans()
	}
	if db.walNum != 0 && db.fs.Exists(db.walName(db.walNum)) {
		if err := db.replayWAL(); err != nil {
			return nil, err
		}
	}
	// Replayed records go to a table; either way a fresh WAL starts.
	var err error
	if !db.mem.Empty() {
		err = db.flushLocked()
	} else {
		err = db.rotateWALLocked()
	}
	if err != nil {
		return nil, err
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
	if db.saveErr != nil {
		return db.saveErr
	}
	if db.logw == nil {
		// A flush's WAL create failed: no write is acknowledged unlogged.
		if err := db.rotateWALLocked(); err != nil {
			return err
		}
	}
	db.seq++
	rec.Seq = db.seq
	db.logBuf = rec.Encode(db.logBuf[:0])
	if err := db.logw.AddRecord(db.logBuf); err != nil {
		return err
	}
	if db.cfg.SyncWrites {
		if err := db.logw.Sync(); err != nil {
			return err
		}
	}
	db.mem.Put(rec)
	if db.mem.Size() >= db.cfg.MemtableSize {
		if err := db.flushLocked(); err != nil {
			return err
		}
		return db.maybeCompactLocked()
	}
	return nil
}

// Get returns the value for key. Read path: the memtable, then every run
// of every level, newest first, one candidate table per run, each gated by
// its Bloom filter — the multi-level read amplification UniKV removes.
func (db *DB) Get(key []byte) ([]byte, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	if rec, ok := db.mem.Get(key); ok {
		return resolve(rec)
	}
	for _, runs := range db.levels {
		for _, r := range runs {
			t := findTable(r, key)
			if t == nil || !t.rdr.MayContain(key) {
				continue
			}
			t.accesses.Add(1)
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

// seekTable returns the index of the first table in r whose largest key
// is >= key (len(r) if none).
func seekTable(r run, key []byte) int {
	lo, hi := 0, len(r)
	for lo < hi {
		mid := (lo + hi) / 2
		if codec.Compare(r[mid].largest, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// findTable returns the table of r whose range covers key, or nil.
func findTable(r run, key []byte) *table {
	i := seekTable(r, key)
	if i == len(r) || codec.Compare(key, r[i].smallest) < 0 {
		return nil
	}
	return r[i]
}

// Compact flushes the memtable and compacts until every level is within
// its limit.
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if db.saveErr != nil {
		return db.saveErr
	}
	if !db.mem.Empty() {
		if err := db.flushLocked(); err != nil {
			return err
		}
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
		first = db.flushLocked()
	}
	if db.logw != nil {
		db.logw.Sync()
		db.logw.Close()
		db.logw = nil
	}
	for _, runs := range db.levels {
		for _, r := range runs {
			for _, t := range r {
				t.rdr.Close()
			}
		}
	}
	db.closed = true
	return first
}

// Stats reports tree shape and access counts.
type Stats struct {
	Name        string
	Flushes     int64
	Compactions int64
	Levels      []LevelStats
}

// LevelStats describes one level.
type LevelStats struct {
	Level    int
	Runs     int
	Tables   int
	Bytes    int64
	Accesses int64
}

// Stats returns a snapshot.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := Stats{Name: db.cfg.Name, Flushes: db.flushes.Load(), Compactions: db.compactions.Load()}
	for lev, runs := range db.levels {
		ls := LevelStats{Level: lev, Runs: len(runs)}
		for _, r := range runs {
			ls.Tables += len(r)
			for _, t := range r {
				ls.Bytes += t.size
				ls.Accesses += t.accesses.Load()
			}
		}
		s.Levels = append(s.Levels, ls)
	}
	return s
}

// TableAccesses returns per-table access counts ordered from L0 outward,
// newest run first — "lower ID = closer to memory", the series behind the
// paper's Fig. 2.
func (db *DB) TableAccesses() []int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []int64
	for _, runs := range db.levels {
		for _, r := range runs {
			for _, t := range r {
				out = append(out, t.accesses.Load())
			}
		}
	}
	return out
}

// rotateWALLocked starts a fresh WAL and saves VERSION naming it. The old
// WAL is removed only after that save: until VERSION names the flushed
// table, the old WAL is what recovery replays. A failed create leaves no
// WAL open (the next write retries) and the old one named.
func (db *DB) rotateWALLocked() error {
	if db.logw != nil {
		db.logw.Sync()
		db.logw.Close()
		db.logw = nil
	}
	num := db.nextFile
	db.nextFile++
	f, err := db.fs.Create(db.walName(num))
	if err != nil {
		return err
	}
	old := db.walNum
	db.logw, db.walNum = wal.NewWriter(f), num
	if err := db.saveVersion(); err != nil {
		return err
	}
	if old != 0 {
		db.fs.Remove(db.walName(old))
	}
	return nil
}

func (db *DB) replayWAL() error {
	f, err := db.fs.Open(db.walName(db.walNum))
	if err != nil {
		return err
	}
	defer f.Close()
	r := wal.NewReader(f)
	for {
		data, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		for len(data) > 0 {
			var rec record.Record
			rec, data, err = record.Decode(data)
			if err != nil {
				return nil
			}
			db.mem.Put(rec)
			if rec.Seq > db.seq {
				db.seq = rec.Seq
			}
		}
	}
}

// sweepOrphans removes every table and WAL file VERSION does not name:
// what a flush or compaction left behind when it failed, or the process
// died, before its VERSION save.
func (db *DB) sweepOrphans() {
	names, err := db.fs.List(db.dir)
	if err != nil {
		return
	}
	live := map[string]bool{filepath.Base(db.walName(db.walNum)): true}
	for _, runs := range db.levels {
		for _, r := range runs {
			for _, t := range r {
				live[filepath.Base(db.tableName(t.fileNum))] = true
			}
		}
	}
	for _, name := range names {
		if ext := filepath.Ext(name); (ext == ".sst" || ext == ".wal") && !live[name] {
			db.fs.Remove(filepath.Join(db.dir, name))
		}
	}
}
