// Package bench is the experiment harness: it runs every table and figure
// of the paper's evaluation against the five engines (UniKV and the
// LevelDB/RocksDB/HyperLevelDB/PebblesDB-class baselines) behind one Store
// interface, and prints the same rows/series the paper reports.
//
// Engines run over the in-memory vfs by default so results measure
// algorithmic cost plus *counted* logical I/O (write/read amplification via
// vfs counters) rather than one machine's disk; see EXPERIMENTS.md for the
// interpretation contract.
package bench

import (
	"errors"
	"fmt"

	"unikv/internal/core"
	"unikv/internal/hashstore"
	"unikv/internal/lsm"
	"unikv/internal/vfs"
)

// ErrScanUnsupported marks engines without range scans (hash store).
var ErrScanUnsupported = errors.New("bench: scan unsupported")

// KV is one scan result.
type KV struct {
	Key   []byte
	Value []byte
}

// Store is the engine-neutral interface the experiments drive.
type Store interface {
	Name() string
	Put(key, value []byte) error
	Get(key []byte) ([]byte, error)
	Delete(key []byte) error
	Scan(start []byte, limit int) ([]KV, error)
	// Compact settles background-equivalent work (drain hot tiers) so read
	// phases measure steady state.
	Compact() error
	Close() error
}

// Store kinds.
const (
	KindUniKV        = "unikv"
	KindLevelDB      = "leveldb"
	KindRocksDB      = "rocksdb"
	KindHyperLevelDB = "hyperleveldb"
	KindPebblesDB    = "pebblesdb"
	KindHashStore    = "hashstore"
)

// AllKinds lists the paper's comparison set (fig7/8/9/10).
func AllKinds() []string {
	return []string{KindLevelDB, KindRocksDB, KindHyperLevelDB, KindPebblesDB, KindUniKV}
}

// Env describes where and how to open a store.
type Env struct {
	// FS defaults to a fresh in-memory file system.
	FS vfs.FS
	// Dir defaults to the store kind.
	Dir string
	// DatasetBytes sizes engine buffers: each engine's write buffer is
	// ~1/64 of the expected dataset so tier shapes match the paper's
	// regime at laptop scale.
	DatasetBytes int64
	// UniKVTweak mutates the UniKV options before opening (ablations).
	UniKVTweak func(*core.Options)
	// BackgroundWorkers sizes UniKV's maintenance pool (0 = inline).
	// Applied before UniKVTweak, so a tweak can still override it.
	BackgroundWorkers int
}

func (e Env) withDefaults(kind string) Env {
	if e.FS == nil {
		e.FS = vfs.NewMem()
	}
	if e.Dir == "" {
		e.Dir = kind
	}
	if e.DatasetBytes <= 0 {
		e.DatasetBytes = 64 << 20
	}
	return e
}

// clampMin returns v or lo, whichever is larger.
func clampMin(v, lo int64) int64 {
	if v < lo {
		return lo
	}
	return v
}

// OpenStore opens one engine sized for the environment's dataset.
func OpenStore(kind string, env Env) (Store, error) {
	env = env.withDefaults(kind)
	memtable := clampMin(env.DatasetBytes/64, 16<<10)
	switch kind {
	case KindUniKV:
		opts := core.Options{
			FS:                 env.FS,
			MemtableSize:       memtable,
			UnsortedLimit:      clampMin(env.DatasetBytes/8, 8*memtable),
			PartitionSizeLimit: clampMin(env.DatasetBytes/3, 32*memtable),
			MaxLogSize:         clampMin(env.DatasetBytes/16, 64<<10),
			TargetTableSize:    clampMin(env.DatasetBytes/128, 32<<10),
			BackgroundWorkers:  env.BackgroundWorkers,
		}
		if env.UniKVTweak != nil {
			env.UniKVTweak(&opts)
		}
		db, err := core.Open(env.Dir, opts)
		if err != nil {
			return nil, err
		}
		return &unikvStore{db: db}, nil
	case KindLevelDB, KindRocksDB, KindHyperLevelDB, KindPebblesDB:
		presets := map[string]func(float64) lsm.Config{
			KindLevelDB:      lsm.ConfigLevelDB,
			KindRocksDB:      lsm.ConfigRocksDB,
			KindHyperLevelDB: lsm.ConfigHyperLevelDB,
			KindPebblesDB:    lsm.ConfigPebblesDB,
		}
		cfg := presets[kind](float64(memtable) / float64(4<<20))
		cfg.FS = env.FS
		db, err := lsm.Open(env.Dir, cfg)
		if err != nil {
			return nil, err
		}
		return &lsmStore{db: db, name: kind}, nil
	case KindHashStore:
		// Fixed directory (SkimpyStash's low-RAM design point).
		db, err := hashstore.Open(env.Dir, hashstore.Config{Buckets: 1 << 12, FS: env.FS})
		if err != nil {
			return nil, err
		}
		return &hashStore{db: db}, nil
	}
	return nil, fmt.Errorf("bench: unknown store kind %q", kind)
}

// ---------------------------------------------------------------------------
// Adapters.

type unikvStore struct{ db *core.DB }

func (s *unikvStore) Name() string                 { return KindUniKV }
func (s *unikvStore) Put(k, v []byte) error        { return s.db.Put(k, v) }
func (s *unikvStore) Delete(k []byte) error        { return s.db.Delete(k) }
func (s *unikvStore) Compact() error               { return s.db.CompactAll() }
func (s *unikvStore) Close() error                 { return s.db.Close() }
func (s *unikvStore) Get(k []byte) ([]byte, error) { return s.db.Get(k) }
func (s *unikvStore) Metrics() core.StatsSnapshot  { return s.db.Metrics() }
func (s *unikvStore) DB() *core.DB                 { return s.db }
func (s *unikvStore) Scan(start []byte, limit int) ([]KV, error) {
	kvs, err := s.db.Scan(start, nil, limit)
	if err != nil {
		return nil, err
	}
	out := make([]KV, len(kvs))
	for i, kv := range kvs {
		out[i] = KV{Key: kv.Key, Value: kv.Value}
	}
	return out, nil
}

type lsmStore struct {
	db   *lsm.DB
	name string
}

func (s *lsmStore) Name() string                 { return s.name }
func (s *lsmStore) Put(k, v []byte) error        { return s.db.Put(k, v) }
func (s *lsmStore) Delete(k []byte) error        { return s.db.Delete(k) }
func (s *lsmStore) Compact() error               { return s.db.Compact() }
func (s *lsmStore) Close() error                 { return s.db.Close() }
func (s *lsmStore) Get(k []byte) ([]byte, error) { return s.db.Get(k) }
func (s *lsmStore) DB() *lsm.DB                  { return s.db }
func (s *lsmStore) Scan(start []byte, limit int) ([]KV, error) {
	kvs, err := s.db.Scan(start, nil, limit)
	if err != nil {
		return nil, err
	}
	out := make([]KV, len(kvs))
	for i, kv := range kvs {
		out[i] = KV{Key: kv.Key, Value: kv.Value}
	}
	return out, nil
}

type hashStore struct{ db *hashstore.DB }

func (s *hashStore) Name() string                 { return KindHashStore }
func (s *hashStore) Put(k, v []byte) error        { return s.db.Put(k, v) }
func (s *hashStore) Delete(k []byte) error        { return s.db.Delete(k) }
func (s *hashStore) Compact() error               { return nil }
func (s *hashStore) Close() error                 { return s.db.Close() }
func (s *hashStore) Get(k []byte) ([]byte, error) { return s.db.Get(k) }
func (s *hashStore) Scan(start []byte, limit int) ([]KV, error) {
	return nil, ErrScanUnsupported
}
