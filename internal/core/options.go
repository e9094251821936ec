// Package core implements the UniKV engine — the paper's primary
// contribution. It composes the substrates (memtable, WAL, SSTables, the
// two-level hash index, value logs, manifest) into the two-tier
// differentiated-indexing design with partial KV separation, dynamic range
// partitioning, scan optimization, and crash consistency.
package core

import (
	"time"

	"unikv/internal/vfs"
)

// CacheOff disables the block/value cache when assigned to
// Options.CacheBytes (0 means "use the default size").
const CacheOff = -1

// HotRingOff disables the hot-key read layer when assigned to
// Options.HotRingEntries (0 means "use the default size").
const HotRingOff = -1

// Options tunes the engine; unikv.Options is this type, so this comment is
// the one reference for every field. The zero value selects the defaults
// (filled at Open, matching the paper's configuration scaled to test
// sizes); every field is optional.
type Options struct {
	// MemtableSize flushes the memtable once it reaches this many bytes.
	// Default 4 MiB.
	MemtableSize int64
	// UnsortedLimit caps a partition's UnsortedStore (the hash-indexed hot
	// tier); reaching it triggers the merge into the SortedStore (paper:
	// configured from available memory, since the hash index grows with
	// the UnsortedStore). Default 8 × MemtableSize.
	UnsortedLimit int64
	// ScanMergeLimit is the UnsortedStore table count that triggers the
	// size-based merge keeping scans fast (scan optimization). Default 8.
	ScanMergeLimit int
	// PartitionSizeLimit splits a partition at its median key once its
	// data (sorted + unsorted + owned log bytes) exceeds this many bytes.
	// Default 8 × UnsortedLimit.
	PartitionSizeLimit int64
	// GCRatio triggers value-log GC in a partition when its dead bytes
	// exceed GCRatio × its referenced log bytes. Default 0.3.
	GCRatio float64
	// MaxLogSize rotates the shared value log at this size. Default 8 MiB.
	MaxLogSize int64
	// TargetTableSize bounds SortedStore tables produced by merges.
	// Default 2 MiB.
	TargetTableSize int64
	// HashBuckets sizes each partition's hash index (first-level buckets).
	// Default UnsortedLimit/100, at least 1024.
	HashBuckets int
	// ValueThreshold enables selective KV separation: values smaller than
	// this many bytes stay inline in the SortedStore instead of moving to
	// a value log (the paper's suggested mitigation for small-KV
	// workloads, where pointer overhead and the extra log I/O outweigh
	// the merge savings). 0 separates every value (the paper's base
	// design).
	ValueThreshold int
	// SyncWrites fsyncs the WAL on every write (off: fsync at rotation,
	// like LevelDB's default).
	SyncWrites bool
	// BackgroundWorkers sizes the maintenance worker pool. Every maintenance
	// step is a job — pin the partition's version, build new files with no
	// partition lock held, commit under it — and this picks who runs the
	// jobs. 0 (the default): the writer that fills a memtable freezes it and
	// runs its flush, and the merge, GC or split behind it, before its Put
	// returns; with one writer that is deterministic, which is what the
	// crash-injection tests and the single-writer ledger rows rely on, and a
	// job's error is that Put's. Any positive value moves the jobs onto that
	// many background workers: a frozen memtable waits on an immutable queue
	// (still readable), errors are retried and escalate to degraded mode, and
	// writers only slow down or stall when maintenance falls behind (see
	// SlowdownImmutables/StallImmutables).
	BackgroundWorkers int
	// SlowdownImmutables starts soft write throttling (a 1 ms sleep per
	// write) once a partition has this many frozen memtables waiting for
	// flush. Only meaningful with BackgroundWorkers > 0. Default 2.
	SlowdownImmutables int
	// StallImmutables blocks writers entirely until a flush completes once
	// the immutable queue reaches this depth. Default 4.
	StallImmutables int
	// ScrubInterval starts a full background scrub pass (checksum
	// verification of every table and value log, see internal/core/scrub.go)
	// this often. Unlike most knobs, scrubbing is opt-in: 0 — the default —
	// means no scrubbing at all, matching pre-scrub behavior byte for byte.
	// Corruption found by a scrub quarantines the affected partitions.
	ScrubInterval time.Duration
	// ScrubBytesPerSec rate-limits scrub reads so a pass cannot monopolize
	// disk bandwidth. 0 selects the default (8 MiB/s); negative means
	// unlimited. Only meaningful with ScrubInterval > 0.
	ScrubBytesPerSec int64
	// CacheBytes bounds the shared read cache holding hot SSTable data
	// blocks and value-log entries. The cache is on by default: 0 selects
	// the default size (32 MiB); a negative value (CacheOff) disables
	// caching entirely, restoring the uncached read path byte for byte.
	CacheBytes int64
	// HotRingEntries sizes the hot-key read layer (internal/hotring): the
	// total way count of the sharded, lock-free, 8-way set-associative
	// structure that serves the hottest keys in one probe before partition
	// routing. On by default: 0 selects the default size (4096 ways); a
	// negative value (HotRingOff) disables the layer, restoring the bare
	// tiered read path. The ring keeps its own defaults for the rest: 16
	// shards, and values above 4 KiB always take the tiered path.
	HotRingEntries int
	// FS overrides the file system (tests and I/O-accounted benchmarks).
	// Default: the operating system's.
	FS vfs.FS

	// exp holds the ablation and test knobs; only code inside this module
	// reaches them, through ExperimentOf.
	exp Experiment
}

// Experiment holds the knobs that switch off, or retune, one of the
// paper's techniques for an ablation (fig11, fig-scan, fig-scanopt), or
// that a test or an offline tool needs. They are not part of the user's
// option set: set them through ExperimentOf, and leave them zero outside
// an experiment.
type Experiment struct {
	// SortedViewOff disables the REMIX-style cross-table sorted view over
	// each partition's unsorted tables (internal/sortedview): scans fall
	// back to a per-call k-way merge across all unsorted tables. The view
	// is memory-only, rebuilt at recovery, and bounded by UnsortedLimit
	// like the hash index.
	SortedViewOff        bool
	DisableHashIndex     bool // probe unsorted tables newest-first instead
	DisableKVSeparation  bool // keep values inline in the SortedStore
	DisablePartitioning  bool // never split; the single partition grows
	DisableScanMerge     bool // never run the size-based merge
	DisableScanPrefetch  bool // no value-log readahead on scans
	DisableScanParallel  bool // fetch scan values serially
	HashCheckpointEvery  int  // flushes between hash-index checkpoints (0 = derive from UnsortedLimit/2; negative = never)
	DisableOrphanCleanup bool // keep orphan files at open (offline tools, debugging)
	BlockSize            int  // SSTable data-block size (0 = sstable.BlockSize)
	HotRingSampleEvery   int  // every n-th ring miss is sampled (0 = the ring's default, 8)
	HotRingPromoteAfter  int  // sampled misses that promote a key (0 = the ring's default, 2)
}

// ExperimentOf returns o's experiment knobs, to set before Open.
func ExperimentOf(o *Options) *Experiment { return &o.exp }

// jobRetries is how many times a background job whose error classifies as
// transient (see Classify) is retried before the DB enters degraded
// read-only mode; corruption and fatal errors are never retried. The first
// retry waits about retryBaseDelay, and each later one twice the last.
const (
	jobRetries     = 3
	retryBaseDelay = 10 * time.Millisecond
)

// sanitize fills in defaults and returns the completed options. A value
// that means "off" (CacheOff, HotRingOff, a negative ScrubBytesPerSec)
// stays as given, so sanitizing twice is sanitizing once.
func (o Options) sanitize() Options {
	if o.MemtableSize <= 0 {
		o.MemtableSize = 4 << 20
	}
	if o.UnsortedLimit <= 0 {
		o.UnsortedLimit = 8 * o.MemtableSize
	}
	if o.ScanMergeLimit <= 0 {
		o.ScanMergeLimit = 8
	}
	if o.PartitionSizeLimit <= 0 {
		o.PartitionSizeLimit = 8 * o.UnsortedLimit
	}
	if o.GCRatio <= 0 {
		o.GCRatio = 0.3
	}
	if o.MaxLogSize <= 0 {
		o.MaxLogSize = 8 << 20
	}
	if o.TargetTableSize <= 0 {
		o.TargetTableSize = 2 << 20
	}
	if o.HashBuckets <= 0 {
		// ~1 bucket per expected entry at 100 B per KV pair, 80 % direct
		// utilization (paper's sizing discussion).
		o.HashBuckets = int(o.UnsortedLimit / 100)
		if o.HashBuckets < 1024 {
			o.HashBuckets = 1024
		}
	}
	if o.exp.HashCheckpointEvery == 0 { // negative stays: never checkpoint
		// Paper: checkpoint every UnsortedLimit/2 worth of flushes.
		n := int(o.UnsortedLimit / (2 * o.MemtableSize))
		if n < 1 {
			n = 1
		}
		o.exp.HashCheckpointEvery = n
	}
	if o.BackgroundWorkers < 0 {
		o.BackgroundWorkers = 0
	}
	if o.SlowdownImmutables <= 0 {
		o.SlowdownImmutables = 2
	}
	if o.StallImmutables <= o.SlowdownImmutables {
		o.StallImmutables = o.SlowdownImmutables + 2
	}
	if o.ScrubInterval < 0 {
		o.ScrubInterval = 0 // scrubbing stays opt-in
	}
	if o.ScrubBytesPerSec == 0 {
		o.ScrubBytesPerSec = 8 << 20
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 32 << 20
	}
	if o.HotRingEntries == 0 {
		o.HotRingEntries = 4096
	}
	if o.FS == nil {
		o.FS = vfs.NewOS()
	}
	return o
}
