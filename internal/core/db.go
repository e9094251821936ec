package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"unikv/internal/cache"
	"unikv/internal/codec"
	"unikv/internal/hotring"
	"unikv/internal/manifest"
	"unikv/internal/sorted"
	"unikv/internal/sstable"
	"unikv/internal/stripe"
	"unikv/internal/unsorted"
	"unikv/internal/vfs"
	"unikv/internal/vlog"
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("unikv: database closed")

// ErrNotFound is returned by Get when the key does not exist.
var ErrNotFound = errors.New("unikv: key not found")

// ErrDBLocked is returned by Open when another live process (or handle)
// already owns the database directory. Before the LOCK file existed, the
// second opener would rotate CURRENT to its own manifest generation and its
// orphan sweep would delete the first process's files — observed losing a
// live database (see ROADMAP, PR 3).
var ErrDBLocked = errors.New("unikv: database locked by another process")

// ErrSnapshotOpen is returned by Close while a snapshot handle is still
// open: closing would unmap the tables and value logs the snapshot has
// pinned out from under its reads. Close every Snapshot first.
var ErrSnapshotOpen = errors.New("unikv: snapshot still open")

// ErrSnapshotClosed is returned by reads on a closed Snapshot.
var ErrSnapshotClosed = errors.New("unikv: snapshot closed")

// DB is a UniKV instance.
type DB struct {
	opts Options
	fs   vfs.FS
	dir  string

	man *manifest.Manifest
	vl  *vlog.Manager

	// dirLock is the exclusive LOCK-file lock on dir, held from Open until
	// Close so a second process cannot adopt (and then sweep) the directory.
	dirLock vfs.DirLock

	// cache is the shared block/value read cache (nil when CacheBytes is
	// CacheOff). Table readers attach to it at open; the vlog manager holds
	// it via its options.
	cache *cache.Cache

	// hot is the hot-key read layer (nil when HotRingEntries is
	// HotRingOff): the single-probe fast path consulted by Get before
	// partition routing. Writes and deletes invalidate per key; a split
	// invalidates the handed-over range. Its per-shard writerMu is the last
	// rank of the lock order below.
	hot *hotring.Ring

	seq      atomic.Uint64
	nextFile atomic.Uint64
	nextPart atomic.Uint32 // next partition ID; persisted by the split that used one

	// router orders partitions by lower boundary key. routes holds the
	// partitions in that order, copy-on-write: readers route with one
	// Load and no lock, and a split publishes a new slice (never edits the
	// published one) under router.mu, which also holds splits off while
	// NewSnapshot captures every partition. Lock order:
	// snapMu -> maintMu -> flushMu -> router.mu -> partition.mu
	//   -> liveFiles.mu -> hotring.writerMu
	// (snapMu is the snapshot-registry lock below; maintMu/flushMu exist
	// per partition and order maintenance jobs; see scheduler.go.)
	router struct {
		sync.RWMutex
		routes atomic.Pointer[[]*partition]
	}

	// snaps registers live MVCC snapshots, keyed by handle ID; each entry
	// pins a sequence number, and the minimum over the table is the seq
	// below which background work must keep superseded versions reachable
	// (enforced physically: a snapshot pins partition versions, which hold
	// their files).
	// snapMu is the first rank of the lock order: NewSnapshot holds it
	// across the whole partition capture, and Close takes it around the
	// closed transition so a snapshot can never race the teardown.
	snaps struct {
		snapMu sync.Mutex
		m      map[uint64]*Snapshot
		nextID uint64
	}

	// liveFiles decides every file's lifetime (files.go).
	liveFiles liveFiles

	pool   *fetchPool
	stats  Stats
	closed atomic.Bool

	// sched executes maintenance jobs: on BackgroundWorkers workers, or
	// with none on the goroutine that submits them.
	sched *scheduler
	// scrub is the opt-in background integrity scrub driver (nil unless
	// ScrubInterval > 0); see scrub.go.
	scrub *scrubber
	// degradedState holds the first terminal background failure; once set
	// the DB is degraded: writes return a DegradedError, reads keep
	// serving. Only a job error that classifies as corruption/fatal, or a
	// transient error surviving jobRetries retries, lands here.
	degradedState atomic.Pointer[DegradedError]

	// triggerEvals counts checkMaintenance calls: one per published version
	// that can arm a trigger (a memtable freeze, a job's commit), none per
	// put. Tests hold the write path to that.
	triggerEvals atomic.Int64

	// Test hooks (nil in production). testHookJobStart fires as a job
	// starts; testHookMergeBuild fires inside a merge between its build and
	// its commit, with no lock of p.mu's rank held; testHookPublish fires
	// as a version becomes current, with what publish requires still held.
	testHookJobStart   func(*partition, jobKind)
	testHookMergeBuild func(*partition)
	testHookPublish    func(*version)
}

// Stats aggregates operation counters for the experiments.
type Stats struct {
	Puts, Deletes, Scans                     atomic.Int64
	Flushes, Merges, ScanMerges, GCs, Splits atomic.Int64
	// Gets is striped (internal/stripe): every Get counts, and two
	// goroutines' Gets write one line only when their stacks hash to the
	// same cell.
	Gets             stripe.Counter
	GCBytesRewritten atomic.Int64
	// Snapshots counts NewSnapshot calls; SnapshotGets/SnapshotScans count
	// reads served through pinned handles.
	Snapshots, SnapshotGets, SnapshotScans atomic.Int64
	HashProbes                             atomic.Int64
	// ScanPrefetchIssued counts the value-log spans scans read ahead (one
	// read covering a contiguous run of a scan's values);
	// ScanPrefetchWasted those from which not one value verified.
	ScanPrefetchIssued, ScanPrefetchWasted atomic.Int64
	Stalls, StallNanos, SlowdownNanos      atomic.Int64
	// BackgroundErrors counts distinct terminal job failures (a job that
	// exhausted its retries or hit corruption); BackgroundRetries counts
	// job attempts that failed transiently and were retried.
	BackgroundErrors  atomic.Int64
	BackgroundRetries atomic.Int64
	// Scrub progress (see scrub.go): passes started, bytes re-read and
	// verified, tables and value logs completed clean, corrupt files found.
	ScrubPasses      atomic.Int64
	ScrubBytes       atomic.Int64
	ScrubTables      atomic.Int64
	ScrubLogs        atomic.Int64
	ScrubCorruptions atomic.Int64
	// PartitionsQuarantined counts quarantine transitions over the DB's
	// lifetime (the live gauge is StatsSnapshot.QuarantinedPartitions).
	PartitionsQuarantined atomic.Int64
}

// StatsSnapshot is a plain-value copy of Stats plus derived gauges.
type StatsSnapshot struct {
	Puts, Gets, Deletes, Scans               int64
	Flushes, Merges, ScanMerges, GCs, Splits int64
	GCBytesRewritten                         int64
	Partitions                               int
	UnsortedTables                           int
	SortedTables                             int
	ValueLogs                                int
	HashIndexBytes                           int64
	UnsortedBytes                            int64
	SortedBytes                              int64
	ValueLogBytes                            int64
	TableBlockReads                          int64
	Stalls, StallNanos, SlowdownNanos        int64
	// BackgroundErrors counts terminal job failures; BackgroundRetries
	// counts transiently failed attempts absorbed by the retry policy.
	BackgroundErrors   int64
	BackgroundRetries  int64
	PendingJobs        int
	ImmutableMemtables int

	// Degraded mode (see DESIGN.md §5g). Degraded is true once a
	// background job failed terminally: writes fail with ErrDegraded,
	// reads keep serving. DegradedSince is the trip time in Unix
	// nanoseconds (0 when healthy); DegradedCause names the failed job,
	// partition, and error.
	Degraded      bool
	DegradedSince int64
	DegradedCause string

	// Scrub progress (all zero with ScrubInterval = 0, the default) and the
	// quarantine gauge. ScrubPasses counts pass starts; ScrubbedBytes the
	// bytes re-read and checksum-verified; ScrubbedTables/ScrubbedLogs the
	// files that came back clean; ScrubCorruptions the corrupt files found
	// (by any scrub, foreground reads count only toward quarantine).
	// QuarantinedPartitions gauges partitions currently quarantined —
	// rejecting writes after corruption was found in their files, while
	// every other partition serves normally (see quarantine.go).
	ScrubPasses           int64
	ScrubbedBytes         int64
	ScrubbedTables        int64
	ScrubbedLogs          int64
	ScrubCorruptions      int64
	QuarantinedPartitions int

	// Read-cache counters (all zero when the cache is disabled).
	CacheBlockHits   int64
	CacheBlockMisses int64
	CacheValueHits   int64
	CacheValueMisses int64
	CacheEvictions   int64
	CacheBytes       int64
	CacheEntries     int64

	// Hot-ring counters (all zero when the hot ring is disabled).
	// Hits/Misses count Get probes; Promotions counts installs;
	// Invalidations counts resident entries dropped by writes, deletes,
	// and splits. Resident/ResidentBytes gauge current occupancy.
	HotRingHits          int64
	HotRingMisses        int64
	HotRingPromotions    int64
	HotRingInvalidations int64
	HotRingResident      int64
	HotRingResidentBytes int64

	// Sorted-view gauges and counters (all zero with SortedViewOff; see
	// internal/sortedview). Entries/Bytes gauge the views' current size
	// across partitions; Builds counts views derived in memory (a flush's
	// extension, a merge's, scan merge's or split's replacement), Rebuilds
	// views built by reading every table (the first scan after recovery).
	SortedViewEntries  int64
	SortedViewBytes    int64
	SortedViewBuilds   int64
	SortedViewRebuilds int64

	// Scan readahead effectiveness: value-log spans read by scans (one per
	// contiguous run of a scan's values), and spans from which no value
	// verified.
	ScanPrefetchIssued int64
	ScanPrefetchWasted int64

	// MVCC snapshot counters and gauges. Snapshots counts handles taken
	// over the DB's lifetime; SnapshotsOpen gauges live handles;
	// SnapshotMinSeq is the smallest pinned sequence among them (0 when
	// none are open) — the fence below which background work must keep
	// superseded versions reachable.
	Snapshots      int64
	SnapshotGets   int64
	SnapshotScans  int64
	SnapshotsOpen  int
	SnapshotMinSeq uint64
}

// file-name helpers -----------------------------------------------------

// partDir is the directory of partition id under dir.
func partDir(dir string, id uint32) string { return filepath.Join(dir, fmt.Sprintf("p%d", id)) }

func (db *DB) partDir(id uint32) string { return partDir(db.dir, id) }

func tableName(dir string, num uint64) string { return partFileName(dir, fileTable, num) }

func walName(dir string, num uint64) string { return partFileName(dir, fileWAL, num) }

func ckptName(dir string, num uint64) string { return partFileName(dir, fileCkpt, num) }

func (db *DB) vlogDir() string { return filepath.Join(db.dir, "vlog") }

// parseFileName inverts partFileName: a partition file's number and kind, ok
// false for any other name.
func parseFileName(name string) (num uint64, kind fileKind, ok bool) {
	ext := filepath.Ext(name)
	digits := strings.TrimSuffix(name, ext)
	n, err := strconv.ParseUint(digits, 10, 64)
	kind = fileKind(slices.Index(fileExts[:], ext))
	if err != nil || fmt.Sprintf("%08d", n) != digits || kind > fileCkpt {
		return 0, 0, false
	}
	return n, kind, true
}

// parsePartDir inverts partDir: the partition ID of a directory name.
func parsePartDir(name string) (uint32, bool) {
	digits, ok := strings.CutPrefix(name, "p")
	n, err := strconv.ParseUint(digits, 10, 32)
	return uint32(n), ok && err == nil && strconv.FormatUint(n, 10) == digits
}

// allocFileNum returns a fresh file number. The new high-water mark is
// persisted with the next manifest batch (nextFileEdit).
func (db *DB) allocFileNum() uint64 {
	return db.nextFile.Add(1) - 1
}

// nextFileEdit captures the counter for inclusion in a manifest batch.
func (db *DB) nextFileEdit() manifest.Edit {
	return manifest.NextFile(db.nextFile.Load())
}

// Open opens (creating if necessary) a UniKV database in dir.
func Open(dir string, opts Options) (*DB, error) {
	opts = opts.sanitize()
	if err := opts.FS.MkdirAll(dir); err != nil {
		return nil, err
	}
	// Lock the directory before reading any state: losing the race here is
	// how a second opener used to rotate CURRENT and sweep the live owner's
	// files.
	lock, err := lockDir(opts.FS, dir)
	if err != nil {
		return nil, err
	}
	db, err := open(dir, opts, lock)
	if Classify(err) == ClassCorruption {
		return nil, fmt.Errorf("%w (unikv-ctl -dir %s repair salvages it)", err, dir)
	}
	return db, err
}

// lockDir takes dir's LOCK-file lock, for Open and Repair.
func lockDir(fs vfs.FS, dir string) (vfs.DirLock, error) {
	lock, err := fs.TryLockDir(dir)
	if errors.Is(err, vfs.ErrLocked) {
		return nil, fmt.Errorf("%w: %s", ErrDBLocked, dir)
	}
	return lock, err
}

// open is Open's body once it holds dir's lock, which passes to the DB:
// Close releases it, as does a failed open. Repair ends by opening through
// it.
func open(dir string, opts Options, lock vfs.DirLock) (*DB, error) {
	db := &DB{opts: opts, fs: opts.FS, dir: dir, dirLock: lock}
	db.liveFiles = liveFiles{refs: map[fileID]int{}, readers: map[fileID]*sstable.Reader{},
		jobs: map[*job]bool{}, current: map[*partition]*version{}, stale: map[*partition]bool{},
		owners: map[uint32]int64{}}
	db.snaps.m = make(map[uint64]*Snapshot)
	db.router.routes.Store(&[]*partition{}) // no partition until bootstrap or recover; Close may run first
	state, gen, files, err := loadState(db.fs, dir)
	if err == nil {
		db.man, err = manifest.Continue(db.fs, dir, state, gen)
	}
	if err != nil {
		db.releaseDirLock()
		return nil, err
	}
	db.nextFile.Store(state.NextFileNum)
	db.seq.Store(state.LastSeq)
	db.nextPart.Store(state.NextPartID)
	db.cache = cache.New(opts.CacheBytes, 0)
	if opts.HotRingEntries > 0 {
		db.hot = hotring.New(hotring.Config{
			Entries:      opts.HotRingEntries,
			SampleEvery:  opts.exp.HotRingSampleEvery,
			PromoteAfter: opts.exp.HotRingPromoteAfter,
		})
	}

	vl, err := vlog.Open(db.fs, db.vlogDir(), vlog.Options{MaxLogSize: opts.MaxLogSize, Cache: db.cache})
	if err != nil {
		db.man.Close()
		db.releaseDirLock()
		return nil, err
	}
	db.vl = vl
	db.pool = newFetchPool(scanWorkers)
	db.sched = newScheduler(db, opts.BackgroundWorkers)

	if len(state.Partitions) == 0 {
		err = db.bootstrap()
	} else {
		err = db.recover(state, files)
	}
	if err != nil {
		db.Close()
		return nil, err
	}
	if !opts.exp.DisableOrphanCleanup {
		db.sweepOrphans()
	}
	if opts.ScrubInterval > 0 {
		db.scrub = newScrubber(db)
	}
	return db, nil
}

// loadState reads dir's manifest state, and the directory listing
// (diskFiles), for Open and Repair alike. Before anything is written it
// refuses, as corruption, a state that does not describe the directory:
//   - a record stream damaged short of a torn final record (manifest.Load);
//   - a state naming a table or WAL the directory lacks: files lost beside
//     a whole manifest (errNamesMissing), or, past a torn final record, an
//     older state than the one committed last, whose files are gone;
//   - a state naming no partition (a missing CURRENT reads as one) while a
//     partition directory holds a table or a written WAL.
//
// Opening over any of them would bootstrap over, or sweep, the files the
// lost records named. A refusal still returns the listing, and the state
// when one was read, for Repair.
func loadState(fs vfs.FS, dir string) (*manifest.State, uint64, []fileID, error) {
	files := diskFiles(fs, dir)
	state, gen, torn, err := manifest.Load(fs, dir)
	if err != nil {
		return nil, 0, files, err
	}
	refuse := func(why error, format string, args ...any) (*manifest.State, uint64, []fileID, error) {
		return state, gen, files, fmt.Errorf("%w: %s", why, fmt.Sprintf(format, args...))
	}
	for _, meta := range state.Partitions {
		named := []fileID{{meta.ID, fileWAL, meta.WALNum}}
		for _, tm := range slices.Concat(meta.Unsorted, meta.Sorted) {
			named = append(named, fileID{meta.ID, fileTable, tm.FileNum})
		}
		for _, f := range named {
			if _, ok := slices.BinarySearchFunc(files, f, compareFiles); ok || f.num == 0 {
				continue
			}
			why := errNamesMissing
			if torn { // maybe the lost final record retired f
				why = fmt.Errorf("%w: past a torn final record", manifest.ErrCorrupt)
			}
			return refuse(why, "p%d/%s is missing", f.part, partFileName("", f.kind, f.num))
		}
	}
	if len(state.Partitions) > 0 {
		return state, gen, files, nil
	}
	for _, f := range files {
		written := f.kind == fileTable
		if f.kind == fileWAL { // bootstrap creates its WAL before the batch naming it
			data, err := fs.ReadFile(walName(partDir(dir, f.part), f.num))
			if err != nil {
				return nil, 0, files, err
			}
			written = len(data) > 0
		}
		if written {
			return refuse(manifest.ErrCorrupt, "it names no partition, but p%d holds %s", f.part, partFileName("", f.kind, f.num))
		}
	}
	return state, gen, files, nil
}

// errNamesMissing is loadState's refusal of a whole manifest naming files
// the directory lacks; Repair keeps that state and drops them from it.
var errNamesMissing = fmt.Errorf("%w: it names a file the directory lacks", manifest.ErrCorrupt)

// bootstrap creates the initial single partition covering the whole key
// space.
func (db *DB) bootstrap() error {
	const pid = 1
	pdir := db.partDir(pid)
	if err := db.fs.MkdirAll(pdir); err != nil {
		return err
	}
	p := &partition{db: db, id: pid, dir: pdir}
	v := p.emptyVersion(nil)
	edits := []manifest.Edit{
		manifest.AddPartition(pid, nil),
		manifest.NextPart(2),
	}
	if err := p.newWALLocked(v); err != nil {
		return err
	}
	edits = append(edits, manifest.SetWAL(pid, v.wals[0]), db.nextFileEdit())
	if err := db.man.Apply(edits...); err != nil {
		return err
	}
	p.publish(v)
	db.router.routes.Store(&[]*partition{p})
	db.nextPart.Store(2)
	return nil
}

// recover rebuilds all partitions from the manifest state, replaying WALs
// and hash-index checkpoints, and flushes what the WALs held. files is the
// directory listing (diskFiles).
func (db *DB) recover(state *manifest.State, files []fileID) error {
	metas := state.SortedPartitions()
	parts := make([]*partition, 0, len(metas))
	for i, meta := range metas {
		var upper []byte
		if i+1 < len(metas) {
			upper = append(upper, metas[i+1].Lower...)
		}
		p, err := db.recoverPartition(meta, upper, files)
		if err != nil {
			return err
		}
		parts = append(parts, p)
	}
	db.router.routes.Store(&parts)
	// Flush recovered memtables so recovery converges to a clean WAL.
	for _, p := range parts {
		err := p.flushAll()
		if err == nil && p.wal == nil {
			p.mu.Lock()
			err = p.rotateWALLocked() // nothing to flush: just open a log
			p.mu.Unlock()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// recoverPartition is the one constructor of a version from a
// PartitionMeta: it restores the stores and, from the WALs (files is the
// diskFiles listing), the memtable, publishes the version, and moves the
// counters past what it opened — file numbers, sequence numbers and the
// partition ID — so none the state records can be handed out twice.
func (db *DB) recoverPartition(meta *manifest.PartitionMeta, upper []byte, files []fileID) (*partition, error) {
	pdir := db.partDir(meta.ID)
	if err := db.fs.MkdirAll(pdir); err != nil {
		return nil, err
	}
	p := &partition{db: db, id: meta.ID, dir: pdir, lower: append([]byte(nil), meta.Lower...)}
	v := p.emptyVersion(upper)
	v.logs = slices.Clone(meta.Logs)
	slices.Sort(v.logs)
	v.ckpt = meta.HashCkpt

	// UnsortedStore: checkpoint + replay.
	ckpt := ""
	if meta.HashCkpt != 0 {
		ckpt = ckptName(pdir, meta.HashCkpt)
	}
	var err error
	v.uns, err = unsorted.Recover(db.fs, db.opts.HashBuckets, meta.Unsorted, ckpt,
		db.opts.exp.DisableHashIndex, db.opts.exp.SortedViewOff, p.openTable)
	if err != nil {
		return nil, err
	}

	// SortedStore.
	run := make([]*sorted.Table, 0, len(meta.Sorted))
	for _, tm := range meta.Sorted {
		rdr, err := p.openTable(tm)
		if err != nil {
			return nil, err
		}
		run = append(run, &sorted.Table{Meta: tm, Reader: rdr})
	}
	v.srt = sorted.New(run)

	// WAL replay. The manifest records the oldest WAL still holding
	// unflushed data; a memtable is frozen onto its own WAL without a
	// manifest edit, so replaying every later WAL in ascending number order
	// reconstructs write order. The version names the last; recover() moves
	// the memtable off them at once and the orphan sweep removes the rest.
	if meta.WALNum != 0 {
		for _, num := range walNumsFrom(files, meta.ID, meta.WALNum) {
			if err := replayWAL(db.fs, walName(pdir, num), v.mem); err != nil {
				return nil, err
			}
			v.wals[0] = num
		}
	}
	// A freeze allocates its WAL's number, and a job its outputs', ahead of
	// the batch that records the counter, so the counters are derived here.
	v.each(func(f fileID) {
		if f.kind != fileLog {
			db.nextFile.Store(max(db.nextFile.Load(), f.num+1))
		}
	})
	db.seq.Store(max(db.seq.Load(), v.mem.MaxSeq()))
	for _, t := range tablesOf(v) {
		db.seq.Store(max(db.seq.Load(), t.r.MaxSeq()))
	}
	db.nextPart.Store(max(db.nextPart.Load(), meta.ID+1))
	p.publish(v)
	return p, nil
}

// walNumsFrom lists partition pid's .wal file numbers in files (diskFiles)
// that are >= from, in ascending order.
func walNumsFrom(files []fileID, pid uint32, from uint64) []uint64 {
	var nums []uint64
	for _, f := range files {
		if f.part == pid && f.kind == fileWAL && f.num >= from {
			nums = append(nums, f.num)
		}
	}
	return nums
}

// Close flushes memtables and releases every resource. It fails with
// ErrSnapshotOpen while any Snapshot handle is still open — tearing down
// would unmap the tables and value logs the snapshot has pinned.
func (db *DB) Close() error {
	// The closed transition happens under snapMu so it cannot interleave
	// with NewSnapshot: either the snapshot registers first (and Close
	// refuses) or Close wins (and NewSnapshot sees ErrClosed).
	db.snaps.snapMu.Lock()
	if len(db.snaps.m) > 0 {
		db.snaps.snapMu.Unlock()
		return ErrSnapshotOpen
	}
	already := db.closed.Swap(true)
	db.snaps.snapMu.Unlock()
	if already {
		return nil
	}
	var first error
	// Stop the maintenance executor first: running jobs finish — the stop
	// signal aborts retry backoffs and the scrub's rate-limit waits, so they
	// finish fast — queued ones are dropped (the flush below covers them),
	// stalled writers wake and observe closed. Then the scrub driver.
	db.sched.close()
	if db.scrub != nil {
		db.scrub.wg.Wait()
	}
	for _, p := range db.partitions() {
		p.wakeStalled()
		if db.degradedErr() == nil {
			if err := p.flushAll(); err != nil && first == nil {
				first = err
			}
		}
		p.mu.Lock()
		if p.wal != nil {
			if err := p.wal.Sync(); err != nil && first == nil {
				first = err
			}
			p.wal.Close()
			p.wal = nil
		}
		p.mu.Unlock()
	}
	// The versions stay current: nothing leaves the disk, only readers close.
	db.liveFiles.Lock()
	for _, r := range db.liveFiles.readers {
		r.Close()
	}
	clear(db.liveFiles.readers)
	db.liveFiles.Unlock()
	if db.pool != nil {
		db.pool.close()
	}
	if db.vl != nil {
		if err := db.vl.Close(); err != nil && first == nil {
			first = err
		}
	}
	if db.man != nil {
		if err := db.man.Close(); err != nil && first == nil {
			first = err
		}
	}
	// Release the directory lock last: until here the files above are still
	// being flushed and must stay fenced from a concurrent opener. Released
	// even when an earlier step failed — a dead handle must not wedge the
	// directory.
	if err := db.releaseDirLock(); err != nil && first == nil {
		first = err
	}
	return first
}

// releaseDirLock drops the LOCK-file lock if held. Safe to call twice.
func (db *DB) releaseDirLock() error {
	if db.dirLock == nil {
		return nil
	}
	err := db.dirLock.Release()
	db.dirLock = nil
	return err
}

// partitionFor routes key to its partition (largest lower bound <= key).
// It takes no lock: a split racing the route is caught by the caller's
// covers check on the partition's version, which awaits the split's
// routes and re-routes.
func (db *DB) partitionFor(key []byte) *partition {
	parts := db.partitions()
	lo, hi := 0, len(parts)
	for lo < hi {
		mid := (lo + hi) / 2
		if codec.Compare(parts[mid].lower, key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		// Keys below the first partition's lower bound cannot exist (the
		// first partition's lower is empty), but stay defensive.
		return parts[0]
	}
	return parts[lo-1]
}

// awaitRoutes waits until no split is committing. A route whose partition
// does not cover the key raced a split, which narrows the parent before it
// publishes the router order under router.mu; the caller re-routes after
// this returns and finds the child.
func (db *DB) awaitRoutes() {
	db.router.RLock()
	db.router.RUnlock()
}

// partitions returns the router order as last published. The slice is
// shared with every other reader: callers must not modify it.
func (db *DB) partitions() []*partition {
	return *db.router.routes.Load()
}

// Metrics returns a snapshot of engine statistics.
func (db *DB) Metrics() StatsSnapshot {
	s := StatsSnapshot{
		Puts: db.stats.Puts.Load(), Gets: db.stats.Gets.Load(),
		Deletes: db.stats.Deletes.Load(), Scans: db.stats.Scans.Load(),
		Flushes: db.stats.Flushes.Load(), Merges: db.stats.Merges.Load(),
		ScanMerges: db.stats.ScanMerges.Load(), GCs: db.stats.GCs.Load(),
		Splits:            db.stats.Splits.Load(),
		GCBytesRewritten:  db.stats.GCBytesRewritten.Load(),
		Stalls:            db.stats.Stalls.Load(),
		StallNanos:        db.stats.StallNanos.Load(),
		SlowdownNanos:     db.stats.SlowdownNanos.Load(),
		BackgroundErrors:  db.stats.BackgroundErrors.Load(),
		BackgroundRetries: db.stats.BackgroundRetries.Load(),
	}
	s.Snapshots = db.stats.Snapshots.Load()
	s.SnapshotGets = db.stats.SnapshotGets.Load()
	s.SnapshotScans = db.stats.SnapshotScans.Load()
	s.SnapshotsOpen, s.SnapshotMinSeq = db.snapshotGauges()
	if d := db.degradedState.Load(); d != nil {
		s.Degraded = true
		s.DegradedSince = d.Since.UnixNano()
		s.DegradedCause = d.Cause
	}
	s.ScrubPasses = db.stats.ScrubPasses.Load()
	s.ScrubbedBytes = db.stats.ScrubBytes.Load()
	s.ScrubbedTables = db.stats.ScrubTables.Load()
	s.ScrubbedLogs = db.stats.ScrubLogs.Load()
	s.ScrubCorruptions = db.stats.ScrubCorruptions.Load()
	s.QuarantinedPartitions = db.quarantinedCount()
	s.PendingJobs = db.sched.pendingJobs()
	for _, p := range db.partitions() {
		v := p.acquire()
		s.Partitions++
		s.ImmutableMemtables += v.nImm
		s.UnsortedTables += v.unsTables
		s.SortedTables += v.srt.NumTables()
		s.HashIndexBytes += v.uns.Index().MemoryBytes()
		s.UnsortedBytes += v.unsBytes
		s.SortedBytes += v.srt.SizeBytes()
		for _, t := range v.uns.Tables() {
			s.TableBlockReads += t.Reader.BlockReads.Load()
		}
		for _, t := range v.srt.Tables() {
			s.TableBlockReads += t.Reader.BlockReads.Load()
		}
		ve, vb, builds, rebuilds := v.uns.ViewStats()
		s.SortedViewEntries += int64(ve)
		s.SortedViewBytes += vb
		s.SortedViewBuilds += builds
		s.SortedViewRebuilds += rebuilds
		v.release()
	}
	s.ValueLogs = len(db.vl.LogNums())
	s.ValueLogBytes = db.vl.TotalSize()
	s.ScanPrefetchIssued = db.stats.ScanPrefetchIssued.Load()
	s.ScanPrefetchWasted = db.stats.ScanPrefetchWasted.Load()
	cs := db.cache.Snapshot()
	s.CacheBlockHits = cs.BlockHits
	s.CacheBlockMisses = cs.BlockMisses
	s.CacheValueHits = cs.ValueHits
	s.CacheValueMisses = cs.ValueMisses
	s.CacheEvictions = cs.Evictions
	s.CacheBytes = cs.Bytes
	s.CacheEntries = cs.Entries
	hs := db.hot.Snapshot()
	s.HotRingHits = hs.Hits
	s.HotRingMisses = hs.Misses
	s.HotRingPromotions = hs.Promotions
	s.HotRingInvalidations = hs.Invalidations
	s.HotRingResident = hs.Resident
	s.HotRingResidentBytes = hs.ResidentBytes
	return s
}

// Counters exposes the underlying file system's I/O accounting.
func (db *DB) Counters() *vfs.Counters { return db.fs.Counters() }

// ---------------------------------------------------------------------------
// fetchPool: the fixed worker pool used to fetch scan values in parallel
// (paper: a 32-thread pool feeding from a worker queue).

// scanWorkers is the fetch pool's size: the paper's 32 threads.
const scanWorkers = 32

type fetchPool struct {
	jobs chan func()
	wg   sync.WaitGroup
}

func newFetchPool(n int) *fetchPool {
	p := &fetchPool{jobs: make(chan func(), 4*n)}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer p.wg.Done()
			for f := range p.jobs {
				f()
			}
		}()
	}
	return p
}

// run enqueues one job.
func (p *fetchPool) run(f func()) { p.jobs <- f }

func (p *fetchPool) close() {
	close(p.jobs)
	p.wg.Wait()
}
