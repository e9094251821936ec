// Package unikv is a persistent key-value store implementing UniKV
// (ICDE 2020): unified indexing that combines an in-memory hash index over
// recently written (hot) data with a fully-sorted, KV-separated store for
// cold data, scaled out through dynamic range partitioning.
//
// # Quick start
//
//	db, err := unikv.Open("/tmp/mydb", nil)
//	if err != nil { ... }
//	defer db.Close()
//
//	db.Put([]byte("user:42"), []byte("alice"))
//	v, err := db.Get([]byte("user:42"))
//	kvs, err := db.Scan([]byte("user:"), []byte("user;"), 0)
//
// # Architecture
//
// Writes land in a WAL-protected memtable and flush to the partition's
// UnsortedStore, whose tables are indexed by a lightweight two-level hash
// index (8 bytes per entry) for O(1)-ish point access to hot data. When the
// UnsortedStore reaches its limit it merges into the SortedStore — a single
// fully-sorted run per partition — separating values into append-only value
// logs (partial KV separation) so the merge moves keys, not values. A
// partition that exceeds its size limit splits at its median key into two
// partitions (scale-out instead of LSM levels). Scans merge the tiers by
// smallest-key selection and fetch log-resident values with readahead and a
// parallel worker pool.
//
// # Serving
//
// Beyond the embedded API, the store runs as a network service:
// internal/server wraps a DB in a TCP front end speaking the
// length-prefixed binary protocol of internal/protocol (opcodes GET, PUT,
// DELETE, SCAN, BATCH, STATS, PING), coalescing concurrent writes into
// group commits via Batch.Append + DB.Apply. cmd/unikv-server is the
// daemon; pkg/client is the connection-pooled Go client mirroring this
// package's API. See the README's "Serving" section for a quick start.
package unikv

import "unikv/internal/core"

// ErrNotFound is returned by Get when the key does not exist.
var ErrNotFound = core.ErrNotFound

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = core.ErrClosed

// ErrKeyTooLarge is returned for writes whose key or value exceeds the
// on-disk format limits (64 KiB keys, 1 GiB values).
var ErrKeyTooLarge = core.ErrKeyTooLarge

// ErrDBLocked is returned by Open when another live process already owns
// the database directory (its LOCK file is flock'd). The lock is released
// by Close and dies with the owning process.
var ErrDBLocked = core.ErrDBLocked

// ErrSnapshotOpen is returned by Close while a Snapshot handle is still
// open: tearing down would unmap the tables and value logs the snapshot
// has pinned. Close every Snapshot first.
var ErrSnapshotOpen = core.ErrSnapshotOpen

// ErrSnapshotClosed is returned by reads on a closed Snapshot.
var ErrSnapshotClosed = core.ErrSnapshotClosed

// ErrDegraded matches (via errors.Is) every error returned by writes once
// the database has entered degraded read-only mode: a background
// maintenance job failed terminally — its error classified as corruption,
// or as transient and survived the bounded retries — so writes are
// rejected while reads keep serving the still-consistent on-disk state.
// Metrics reports the mode (Degraded, DegradedSince, DegradedCause);
// reopening the database clears it.
var ErrDegraded = core.ErrDegraded

// ErrPartitionQuarantined matches (via errors.Is) every error returned by
// writes routed to a quarantined partition: corruption was detected in
// that partition's files (by the background scrub or a foreground read),
// so its key range rejects writes while every other partition keeps
// serving reads and writes. Metrics reports the count
// (QuarantinedPartitions); run Repair (or unikv-ctl repair) offline and
// reopen to recover.
var ErrPartitionQuarantined = core.ErrPartitionQuarantined

// ErrorClass partitions engine errors by the recovery action they permit:
// transient errors may succeed when retried, corruption errors mean the
// stored bytes are wrong (retrying is useless), fatal errors are
// deterministic outcomes (closed, locked, degraded, oversized key).
type ErrorClass = core.ErrorClass

// Error classes returned by Classify.
const (
	ClassNone       = core.ClassNone
	ClassTransient  = core.ClassTransient
	ClassCorruption = core.ClassCorruption
	ClassFatal      = core.ClassFatal
)

// Classify derives the ErrorClass of an error returned by this package
// (writes, reads, VerifyIntegrity). Unknown errors classify as transient.
func Classify(err error) ErrorClass { return core.Classify(err) }

// CacheOff disables the block/value read cache when assigned to
// Options.CacheBytes (0 means "use the default size").
const CacheOff = core.CacheOff

// HotRingOff disables the hot-key read layer when assigned to
// Options.HotRingEntries (0 means "use the default size").
const HotRingOff = core.HotRingOff

// KV is one key-value pair returned by Scan. The pairs of one Scan result
// are the caller's to keep or mutate. The pairs one partition returns share
// one backing array; each slice's capacity ends where it does, so appending
// to one reallocates instead of running into a neighbour, and keeping one
// pair alive keeps at most about twice the bytes that partition returned.
type KV = core.KV

// Metrics is a snapshot of engine statistics.
type Metrics = core.StatsSnapshot

// Options tunes the store; it is the engine's own option set, documented
// on core.Options. The zero value (or a nil pointer) selects the defaults;
// every field is optional.
type Options = core.Options

// orDefaults returns *o, or the zero Options (every default) for nil.
func orDefaults(o *Options) Options {
	if o == nil {
		return Options{}
	}
	return *o
}

// DB is a UniKV database handle. It is safe for concurrent use.
type DB struct {
	eng *core.DB
}

// Open opens (creating if necessary) a database rooted at path. A nil opts
// selects defaults.
func Open(path string, opts *Options) (*DB, error) {
	eng, err := core.Open(path, orDefaults(opts))
	if err != nil {
		return nil, err
	}
	return &DB{eng: eng}, nil
}

// Put inserts or overwrites key with value. The store keeps its own copies:
// key and value are the caller's again as soon as Put returns.
func (db *DB) Put(key, value []byte) error { return db.eng.Put(key, value) }

// Get returns the value stored for key, or ErrNotFound.
func (db *DB) Get(key []byte) ([]byte, error) { return db.eng.Get(key) }

// AppendGet appends the value stored for key to dst and returns the
// extended slice; on ErrNotFound or any other error it returns dst
// unchanged. Get is AppendGet(nil, key). A caller that reuses one buffer
// — a server encoding a response frame — reads a value without allocating
// for it. The store keeps no reference to dst.
func (db *DB) AppendGet(dst, key []byte) ([]byte, error) { return db.eng.AppendGet(dst, key) }

// Delete removes key. Deleting an absent key is not an error.
func (db *DB) Delete(key []byte) error { return db.eng.Delete(key) }

// Scan returns up to limit pairs with start <= key < end in key order.
// A nil end means "no upper bound"; limit <= 0 means "no count bound".
// The result belongs to the caller (see KV for how its slices share
// memory).
func (db *DB) Scan(start, end []byte, limit int) ([]KV, error) {
	return db.eng.Scan(start, end, limit)
}

// Flush forces buffered writes to disk.
func (db *DB) Flush() error { return db.eng.Flush() }

// Compact drains every partition's hot tier into its sorted tier; useful
// before read-heavy phases and in benchmarks.
func (db *DB) Compact() error { return db.eng.CompactAll() }

// Metrics returns a snapshot of engine statistics.
func (db *DB) Metrics() Metrics { return db.eng.Metrics() }

// Close flushes and releases the database. The handle is unusable after.
func (db *DB) Close() error { return db.eng.Close() }

// Batch collects writes for DB.Apply. Operations landing in the same
// partition are committed with a single WAL record (one fsync under
// SyncWrites) and become durable atomically; a batch that straddles a
// partition boundary commits per-partition, in key order.
type Batch = core.Batch

// NewBatch returns an empty write batch.
func NewBatch() *Batch { return core.NewBatch() }

// Apply applies every operation queued in the batch.
func (db *DB) Apply(b *Batch) error { return db.eng.ApplyBatch(b) }

// VerifyIntegrity re-reads and checksum-verifies every table block and
// value-log record — including the active log's sealed prefix — returning
// the first corruption found (nil when clean).
func (db *DB) VerifyIntegrity() error { return db.eng.VerifyIntegrity() }

// CorruptionReport locates one corrupt file found by VerifyIntegrityReport.
type CorruptionReport = core.CorruptionReport

// VerifyIntegrityReport runs the same verification as VerifyIntegrity but
// keeps going after the first failure, returning every corruption found
// (empty when clean). Verification is read-only: it reports, it does not
// quarantine.
func (db *DB) VerifyIntegrityReport() ([]CorruptionReport, error) {
	return db.eng.VerifyIntegrityReport()
}

// RepairReport is the loss report returned by Repair.
type RepairReport = core.RepairReport

// Repair salvages the database in path offline (the database must not be
// open): torn value-log tails are truncated at the last valid frame,
// unreadable tables are moved into path/lost/, surviving tables are
// rewritten without pointers into lost log bytes, and the manifest is
// rebuilt from what remains. Repair then opens the result and fails unless
// every checksum verifies. The report enumerates every file dropped and
// the key ranges affected. A nil opts selects defaults (opts matters when
// the database uses a custom FS).
func Repair(path string, opts *Options) (*RepairReport, error) {
	return core.Repair(path, orDefaults(opts))
}

// Snapshot is a consistent point-in-time read handle: Get and Scan observe
// exactly the writes sequenced at or before NewSnapshot, no matter how many
// writes, flushes, merges, splits, or value-log GCs run afterwards. Safe
// for concurrent use; Close releases the pinned resources, and DB.Close
// fails with ErrSnapshotOpen while any handle is open.
type Snapshot struct {
	s *core.Snapshot
}

// NewSnapshot pins the current state and returns a consistent read handle.
func (db *DB) NewSnapshot() (*Snapshot, error) {
	s, err := db.eng.NewSnapshot()
	if err != nil {
		return nil, err
	}
	return &Snapshot{s: s}, nil
}

// Seq returns the sequence number the snapshot is pinned to.
func (s *Snapshot) Seq() uint64 { return s.s.Seq() }

// Get returns the value key had at the pinned point, or ErrNotFound.
func (s *Snapshot) Get(key []byte) ([]byte, error) { return s.s.Get(key) }

// Scan returns up to limit pairs with start <= key < end as of the pinned
// point, in key order (same bounds semantics and result ownership as
// DB.Scan: the pairs one partition returns share one backing array, see KV).
func (s *Snapshot) Scan(start, end []byte, limit int) ([]KV, error) {
	return s.s.Scan(start, end, limit)
}

// Close releases the snapshot's pinned tables and value logs. Idempotent.
func (s *Snapshot) Close() error { return s.s.Close() }

// Backup writes an online point-in-time checkpoint of the database into
// destDir (which must be empty or absent). The result opens as an
// independent database reproducing the backup-time state; writes and
// background maintenance proceed concurrently.
func (db *DB) Backup(destDir string) error { return db.eng.Backup(destDir) }
