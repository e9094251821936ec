package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unikv/internal/vfs"
	"unikv/internal/vlog"
)

// gauges are the numbers a version caches for the throttle and the
// maintenance triggers.
type gauges struct {
	nImm, unsTables          int
	unsBytes, logBytes, size int64
}

func (v *version) gauges() gauges {
	return gauges{v.nImm, v.unsTables, v.unsBytes, v.logBytes, v.size}
}

// scratchGauges recomputes v's gauges from scratch, the way the engine
// derived them on every put before versions cached them: table and memtable
// sizes summed up, and each referenced log's size divided by its number of
// owning partitions.
func scratchGauges(v *version, owners func(uint32) int) gauges {
	g := gauges{nImm: len(v.imm), unsTables: len(v.uns.Tables())}
	for _, t := range v.uns.Tables() {
		g.unsBytes += t.Meta.Size
	}
	for _, n := range v.logs {
		g.logBytes += v.p.db.vl.SizeOf(n) / int64(owners(n))
	}
	g.size = g.unsBytes + g.logBytes + v.mem.Size()
	for _, t := range v.srt.Tables() {
		g.size += t.Meta.Size
	}
	for _, m := range v.imm {
		g.size += m.Size()
	}
	return g
}

// ownersByScan counts a log's owners the slow way: the partitions whose
// current version names it.
func ownersByScan(db *DB) func(uint32) int {
	parts := db.partitions()
	return func(n uint32) int {
		owners := 0
		for _, p := range parts {
			if p.cur.Load().hasLog(n) {
				owners++
			}
		}
		return owners
	}
}

// liveGauges is p's footprint right now, memtable growth since the last
// publish included.
func liveGauges(p *partition) gauges {
	v := p.acquire()
	defer v.release()
	return scratchGauges(v, ownersByScan(p.db))
}

// watchGauges checks every version db publishes from here on, at the moment
// it becomes current: the gauges it caches must equal the values recomputed
// from scratch, a log's owners counted over the current versions. The log
// share is compared only with exact set — a test whose maintenance all runs
// on the one goroutine that writes — because another partition's merge may
// append to the shared active log between the publish and the recount; the
// owner counts behind it are checked at rest by checkLogAccounting either
// way.
func watchGauges(t testing.TB, db *DB, exact bool) {
	db.testHookPublish = func(v *version) {
		db.liveFiles.Lock()
		want := scratchGauges(v, func(n uint32) int {
			owners := 0
			for _, c := range db.liveFiles.current {
				if c.hasLog(n) {
					owners++
				}
			}
			return owners
		})
		db.liveFiles.Unlock()
		got := v.gauges()
		if !exact {
			want.size += got.logBytes - want.logBytes
			want.logBytes = got.logBytes
		}
		if got != want {
			t.Errorf("partition %d published gauges %+v, recomputed %+v", v.p.id, got, want)
		}
	}
}

// checkLogAccounting verifies the value logs' accounting while nothing is
// running and no reader or snapshot pins an old version: a log's holders in
// the live-file registry are exactly the current versions naming it, every
// held log is on disk, and a partition idles with its exact share.
func checkLogAccounting(t testing.TB, db *DB) {
	t.Helper()
	scan := ownersByScan(db)
	seen := map[uint32]bool{}
	parts := db.partitions()
	for _, p := range parts {
		for _, n := range p.cur.Load().logs {
			seen[n] = true
		}
	}
	db.liveFiles.Lock()
	defer db.liveFiles.Unlock()
	for n := range seen {
		if got, want := db.liveFiles.refs[logFile(n)], scan(n); got != want {
			t.Errorf("log %d: %d holders, but %d current versions name it", n, got, want)
		}
		if !db.fs.Exists(filepath.Join(db.vlogDir(), vlog.LogName(n))) {
			t.Errorf("log %d is named by a current version but not on disk", n)
		}
	}
	for f, c := range db.liveFiles.refs {
		if f.kind == fileLog && !seen[uint32(f.num)] {
			t.Errorf("log %d has %d holders but no current version names it", f.num, c)
		}
	}
	// Background mode keeps every partition's share exact at rest: a job
	// that moves a shared log's owner count refreshes the other owners.
	for _, p := range parts {
		v := p.cur.Load()
		if want := scratchGauges(v, scan).logBytes; db.sched.workers > 0 && v.logBytes != want {
			t.Errorf("partition %d idles with logBytes %d, its logs and their owners say %d", p.id, v.logBytes, want)
		}
	}
}

// TestVersionPutPathConsultsNoTriggers is the timing-free guard on the
// write path: 10 000 puts into a memtable that never fills evaluate no
// maintenance trigger and take neither the value-log manager's mutex nor
// the live-file registry's — the test holds both while the puts run.
func TestVersionPutPathConsultsNoTriggers(t *testing.T) {
	opts := bgOpts(vfs.NewMem())
	opts.MemtableSize = 64 << 20
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	publishes := 0
	db.testHookPublish = func(*version) { publishes++ }

	done := make(chan error, 1)
	db.liveFiles.Lock()
	db.vl.Exclusive(func() {
		go func() {
			for i := 0; i < 10000; i++ {
				if err := db.Put(key(i), val(i)); err != nil {
					done <- err
					return
				}
			}
			b := NewBatch()
			for i := 0; i < 100; i++ {
				b.Put(key(i), val(i+1))
			}
			done <- db.ApplyBatch(b)
		}()
		select {
		case err = <-done:
		case <-time.After(30 * time.Second):
			err = errors.New("the put path waits for vlog.Manager's or the live-file registry's mutex")
		}
	})
	db.liveFiles.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if n := db.triggerEvals.Load(); n != 0 || publishes != 0 {
		t.Fatalf("10000 puts into one memtable: %d trigger evaluations, %d versions published; want 0 and 0", n, publishes)
	}
}

// TestVersionTriggersEvaluatedPerPublish pins where background mode looks
// at its triggers now that no put does: once per memtable freeze and once
// per completed job, nowhere else.
func TestVersionTriggersEvaluatedPerPublish(t *testing.T) {
	opts := bgOpts(vfs.NewMem())
	opts.exp.DisablePartitioning = true // a split re-checks every partition
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var jobs, freezes atomic.Int64
	db.testHookJobStart = func(*partition, jobKind) { jobs.Add(1) }
	queued := 0 // frozen memtables in the last version; publishes are serialized by p.mu
	db.testHookPublish = func(v *version) {
		if v.nImm > queued {
			freezes.Add(1)
		}
		queued = v.nImm
	}
	for i := 0; i < 3000; i++ {
		if err := db.Put(key(i%700), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitIdle(t, db)
	m := db.Metrics()
	if m.Merges == 0 || m.GCs == 0 || m.BackgroundRetries != 0 {
		t.Fatalf("workload too small or faulty: %+v", m)
	}
	if got, want := db.triggerEvals.Load(), freezes.Load()+jobs.Load(); got != want {
		t.Fatalf("%d trigger evaluations for %d freezes and %d jobs, want one each", got, freezes.Load(), jobs.Load())
	}
	if freezes.Load() != m.Flushes {
		t.Fatalf("%d freezes but %d flushes", freezes.Load(), m.Flushes)
	}
}

// TestVersionTriggersStayLive shows no trigger goes quiet with the per-put
// evaluation gone: a partition that crosses ScanMergeLimit, UnsortedLimit,
// GCRatio and PartitionSizeLimit gets its scan merge, merge, GC and split
// from the evaluations at freezes and job commits alone — also past a flush
// job that fails once and is retried, which leaves no file behind.
func TestVersionTriggersStayLive(t *testing.T) {
	ffs := vfs.NewFail(vfs.NewMem())
	opts := bgOpts(ffs)
	opts.BackgroundWorkers = 1
	opts.ScanMergeLimit = 2
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	watchGauges(t, db, false)
	// Only flushes write tables before the first merge can trigger.
	ffs.ArmPlan(vfs.FailPlan{Fail: 1, Kinds: vfs.OpWrite, Pattern: "*.sst"})
	for i := 0; i < 6000; i++ {
		if err := db.Put(key(i%1500), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitIdle(t, db)
	m := db.Metrics()
	if !ffs.Failed() || m.BackgroundRetries == 0 {
		t.Fatalf("no flush was failed and retried (retries=%d)", m.BackgroundRetries)
	}
	if m.ScanMerges == 0 || m.Merges == 0 || m.GCs == 0 || m.Splits == 0 || m.Degraded {
		t.Fatalf("a trigger went quiet: scan-merges=%d merges=%d gcs=%d splits=%d degraded=%v",
			m.ScanMerges, m.Merges, m.GCs, m.Splits, m.Degraded)
	}
	// At rest nothing is left armed: what the last versions call for has run.
	for _, p := range db.partitions() {
		v := p.cur.Load()
		if v.nImm > 0 || v.unsBytes >= opts.UnsortedLimit || v.unsTables >= opts.ScanMergeLimit ||
			v.needsGC() || v.size >= opts.PartitionSizeLimit {
			t.Errorf("partition %d is idle with a trigger armed: %+v garbage=%d", p.id, v.gauges(), p.garbageBytes.Load())
		}
	}
	checkLogAccounting(t, db)
	checkFileSet(t, db) // the failed attempt's table went as its job ended
}

// TestVersionSharesFollowOtherPartitions: the children of a split share
// their parent's value logs, half each, until one of them rewrites its part.
// That commit doubles the other's logBytes without the other having
// published; the job's follow-up must give it exact gauges and look at its
// triggers, or which of GC and split it gets next depends on when it last
// happened to freeze a memtable.
func TestVersionSharesFollowOtherPartitions(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs)
	for n := 0; len(db.partitions()) == 1; n++ {
		if n > 100000 {
			t.Fatal("never split")
		}
		if err := db.Put(key(n), val(n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	opts := bgOpts(fs)
	opts.exp.DisablePartitioning = true // q must sit still under its new size
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	p, q := db.partitions()[0], db.partitions()[1]
	before := q.cur.Load()
	shared := 0
	for _, n := range p.cur.Load().logs {
		if before.hasLog(n) {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("the split left its children no shared value log")
	}

	p.maintMu.Lock()
	v := p.acquire()
	err = p.gc(v)
	v.release()
	p.maintMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if q.cur.Load() != before {
		t.Fatal("q published on its own")
	}
	evals := db.triggerEvals.Load()
	db.afterCommit(p, jobGC) // what the worker does when the GC job returns

	after := q.cur.Load()
	if got, want := after.gauges(), liveGauges(q); got != want || got.logBytes <= before.logBytes {
		t.Errorf("q's gauges after p left %d shared logs: %+v, recomputed %+v, before %+v", shared, got, want, before.gauges())
	}
	if n := db.triggerEvals.Load() - evals; n != 2 {
		t.Errorf("%d trigger evaluations after a commit that moved q's share, want p's and q's", n)
	}
	waitIdle(t, db)
	checkLogAccounting(t, db)
	checkFileSet(t, db)
}

// probeFS reports every table read, write and sync, every hash-checkpoint
// write and every directory sync to a callback.
type probeFS struct {
	vfs.FS
	onIO func(op, name string)
}

func (fs *probeFS) Create(name string) (vfs.File, error) {
	if !strings.HasSuffix(name, ".sst") {
		return fs.FS.Create(name)
	}
	fs.onIO("Create", name)
	f, err := fs.FS.Create(name)
	return &probeFile{File: f, fs: fs, name: name}, err
}

func (fs *probeFS) Open(name string) (vfs.File, error) {
	f, err := fs.FS.Open(name)
	if err != nil || !strings.HasSuffix(name, ".sst") {
		return f, err
	}
	return &probeFile{File: f, fs: fs, name: name}, nil
}

// WriteFile is how a hash checkpoint is created, written and synced.
func (fs *probeFS) WriteFile(name string, data []byte) error {
	if strings.HasSuffix(name, ".ckpt") {
		for _, op := range []string{"Create", "Write", "Sync"} {
			fs.onIO(op, name)
		}
	}
	return fs.FS.WriteFile(name, data)
}

func (fs *probeFS) SyncDir(dir string) error {
	fs.onIO("SyncDir", dir)
	return fs.FS.SyncDir(dir)
}

type probeFile struct {
	vfs.File
	fs   *probeFS
	name string
}

func (f *probeFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.onIO("ReadAt", f.name)
	return f.File.ReadAt(p, off)
}

func (f *probeFile) Write(p []byte) (int, error) {
	f.fs.onIO("Write", f.name)
	return f.File.Write(p)
}

func (f *probeFile) Sync() error {
	f.fs.onIO("Sync", f.name)
	return f.File.Sync()
}

// TestVersionCommitsDoNoIOUnderLock holds every maintenance job, on either
// executor, to the one job shape: no table is created, written, synced or
// read, and no hash checkpoint created, written or synced, with a partition
// lock held — flush, merge, scan merge, GC, split and the checkpoint build
// in front of it — and a structural job's commit under it is the manifest
// edit and the publish, without a directory sync. (Before the inline twins were
// deleted a zero-worker store did all of a job under the lock.) The writer
// pauses while pooled jobs run and a pooled job parks before it starts while
// the writer runs, so whoever holds a partition lock when a table I/O
// happens is the goroutine doing the I/O.
func TestVersionCommitsDoNoIOUnderLock(t *testing.T) {
	for _, workers := range []int{0, 1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var (
				gate       sync.RWMutex // jobs hold it shared; the writer holds it to write
				structural atomic.Pointer[partition]
				parts      sync.Map // every partition that ever published
				checked    atomic.Int64
				ckpts      atomic.Int64 // hash-checkpoint I/Os seen
			)
			fs := &probeFS{FS: vfs.NewMem()}
			fs.onIO = func(op, name string) {
				if op == "SyncDir" {
					// Outside a structural job a WAL rotation syncs the
					// directory under the lock.
					if p := structural.Load(); p != nil && !p.mu.TryLock() {
						t.Errorf("SyncDir %s with partition %d's lock held by its structural job", name, p.id)
					} else if p != nil {
						p.mu.Unlock()
					}
					return
				}
				checked.Add(1)
				if strings.HasSuffix(name, ".ckpt") {
					ckpts.Add(1)
				}
				parts.Range(func(k, _ any) bool {
					p := k.(*partition)
					if !p.mu.TryLock() {
						t.Errorf("%s %s with partition %d's lock held", op, name, p.id)
						return true
					}
					p.mu.Unlock()
					return true
				})
			}
			opts := bgOpts(fs)
			opts.BackgroundWorkers = workers
			db, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			db.testHookPublish = func(v *version) { parts.Store(v.p, true) }
			gate.Lock()
			db.testHookJobStart = func(p *partition, kind jobKind) {
				// The previous job is over: with one worker the next starts only then.
				structural.Store(nil)
				if workers == 0 {
					return // the writer runs the job: the gate is its own
				}
				gate.RLock()
				defer gate.RUnlock()
				if kind == jobMerge || kind == jobScanMerge || kind == jobGC {
					structural.Store(p)
				}
			}
			for round := 0; round < 80; round++ {
				for i := 0; i < 60; i++ {
					if err := db.Put(key((round*60+i)%1800), val(round)); err != nil {
						t.Fatal(err)
					}
				}
				gate.Unlock()
				waitIdle(t, db)
				gate.Lock()
				structural.Store(nil)
			}
			gate.Unlock()
			m := db.Metrics()
			if m.Merges == 0 || m.ScanMerges == 0 || m.GCs == 0 || m.Splits == 0 || ckpts.Load() == 0 {
				t.Fatalf("nothing to check: merges=%d scan-merges=%d gcs=%d splits=%d, %d I/Os seen, %d of checkpoints",
					m.Merges, m.ScanMerges, m.GCs, m.Splits, checked.Load(), ckpts.Load())
			}
		})
	}
}

// stormRef is the reference the reader storm checks against. Key i goes
// through versions 1, 2, 3, …; its owner counts a version in issued before
// writing it and in acked after the write returned, so a read that started
// when acked[i] was lo and ended when issued[i] was hi must have seen a
// version in [lo, hi]. Every fifth version is a delete.
type stormRef struct {
	issued, acked []atomic.Int64
}

func stormKey(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }

func stormVal(i int, ver int64) []byte {
	return []byte(fmt.Sprintf("k%04d@%d/%s", i, ver, strings.Repeat("x", 60+i%50)))
}

func deletedAt(ver int64) bool { return ver%5 == 0 }

// write applies key i's next version.
func (r *stormRef) write(db *DB, i int) error {
	ver := r.issued[i].Add(1)
	var err error
	if deletedAt(ver) {
		err = db.Delete(stormKey(i))
	} else {
		err = db.Put(stormKey(i), stormVal(i, ver))
	}
	r.acked[i].Store(ver)
	return err
}

// window snapshots the lower bounds of keys [from, to) before a read.
func (r *stormRef) window(from, to int) []int64 {
	lo := make([]int64, to-from)
	for i := range lo {
		lo[i] = r.acked[from+i].Load()
	}
	return lo
}

// check judges one read result of key i (val == nil: not found) that began
// when the key's acked version was lo.
func (r *stormRef) check(i int, lo int64, val []byte) error {
	hi := r.issued[i].Load()
	if val == nil {
		for ver := lo; ver <= hi; ver++ {
			if deletedAt(ver) {
				return nil
			}
		}
		return fmt.Errorf("key %d not found, but it existed in every version in [%d, %d]", i, lo, hi)
	}
	var gotKey int
	var ver int64
	if _, err := fmt.Sscanf(string(val), "k%04d@%d/", &gotKey, &ver); err != nil || gotKey != i {
		return fmt.Errorf("key %d: foreign value %q", i, val)
	}
	if ver < lo || ver > hi || deletedAt(ver) || !bytes.Equal(val, stormVal(i, ver)) {
		return fmt.Errorf("key %d: read version %d, outside its window [%d, %d]", i, ver, lo, hi)
	}
	return nil
}

// checkScan judges the result of a scan of keys [from, to) that began at
// lower bounds lo: order, and every key's presence or absence.
func (r *stormRef) checkScan(from, to int, lo []int64, kvs []KV) error {
	next := 0
	for i := from; i < to; i++ {
		var val []byte
		if next < len(kvs) && bytes.Equal(kvs[next].Key, stormKey(i)) {
			val = kvs[next].Value
			next++
		}
		if err := r.check(i, lo[i-from], val); err != nil {
			return fmt.Errorf("scan [%d, %d): %w", from, to, err)
		}
	}
	if next != len(kvs) {
		return fmt.Errorf("scan [%d, %d): result holds a key out of order or out of range: %q", from, to, kvs[next].Key)
	}
	return nil
}

// TestVersionReaderStorm runs readers without any partition lock against
// everything that publishes versions: two writers keep flushes, merges,
// scan merges, GCs and splits coming while four goroutines Get, Scan and
// read through snapshots, each read checked against the reference for a
// point inside its own invocation window; a fifth reader pins one version
// across two merges and a GC of its partition and then reads everything
// through it. No read may fail — a closed table reader or a removed log
// would — and while the slow reader holds its version nothing it names may
// leave the disk; once everyone lets go, the disk holds exactly what the
// manifest names.
func TestVersionReaderStorm(t *testing.T) {
	leakCheck(t)
	const nKeys = 400
	opts := smallOpts(vfs.NewMem())
	opts.PartitionSizeLimit = 24 << 10
	opts.GCRatio = 0.05
	opts.BackgroundWorkers = 2
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	watchGauges(t, db, false)
	ref := &stormRef{issued: make([]atomic.Int64, nKeys), acked: make([]atomic.Int64, nKeys)}
	for i := 0; i < nKeys; i++ {
		if err := ref.write(db, i); err != nil {
			t.Fatal(err)
		}
	}

	var (
		stop     atomic.Bool
		writers  sync.WaitGroup
		readers  sync.WaitGroup
		quiesce  sync.RWMutex // writers hold it shared per write; a snapshot is taken with it held
		failures atomic.Int64
	)
	fail := func(err error) {
		if failures.Add(1) <= 10 {
			t.Error(err)
		}
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rnd := rand.New(rand.NewSource(int64(w) + 1))
			for !stop.Load() {
				i := rnd.Intn(nKeys/2)*2 + w // each writer owns the keys of its parity
				quiesce.RLock()
				err := ref.write(db, i)
				quiesce.RUnlock()
				if err != nil {
					fail(fmt.Errorf("write key %d: %w", i, err))
					return
				}
			}
		}(w)
	}

	get := func(read func([]byte) ([]byte, error), i int, lo int64) {
		val, err := read(stormKey(i))
		if err != nil && err != ErrNotFound {
			fail(fmt.Errorf("get key %d: %w", i, err))
			return
		}
		if err := ref.check(i, lo, val); err != nil {
			fail(err)
		}
	}
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rnd := rand.New(rand.NewSource(int64(g) + 100))
			for round := 0; round < 400 && failures.Load() == 0; round++ {
				i := rnd.Intn(nKeys)
				get(db.Get, i, ref.acked[i].Load())

				from := rnd.Intn(nKeys - 40)
				to := from + 1 + rnd.Intn(40)
				lo := ref.window(from, to)
				kvs, err := db.Scan(stormKey(from), stormKey(to), 0)
				if err != nil {
					fail(fmt.Errorf("scan: %w", err))
				} else if err := ref.checkScan(from, to, lo, kvs); err != nil {
					fail(err)
				}

				if round%20 != g {
					continue
				}
				// A snapshot of a known state: with the writers held off, every
				// key is exactly at its acked version; afterwards they run on
				// and the snapshot must not move.
				quiesce.Lock()
				pinned := ref.window(0, nKeys)
				s, err := db.NewSnapshot()
				quiesce.Unlock()
				if err != nil {
					fail(err)
					continue
				}
				exact := &stormRef{issued: make([]atomic.Int64, nKeys), acked: make([]atomic.Int64, nKeys)}
				for i, ver := range pinned {
					exact.issued[i].Store(ver)
				}
				for n := 0; n < 30; n++ {
					i := rnd.Intn(nKeys)
					val, err := s.Get(stormKey(i))
					if err != nil && err != ErrNotFound {
						fail(fmt.Errorf("snapshot get key %d: %w", i, err))
					} else if err := exact.check(i, pinned[i], val); err != nil {
						fail(fmt.Errorf("snapshot: %w", err))
					}
				}
				kvs, err = s.Scan(stormKey(from), stormKey(to), 0)
				if err != nil {
					fail(fmt.Errorf("snapshot scan: %w", err))
				} else if err := exact.checkScan(from, to, pinned[from:to], kvs); err != nil {
					fail(fmt.Errorf("snapshot: %w", err))
				}
				s.Close()
			}
		}(g)
	}

	// The slow reader: one version of the first partition, held while its
	// sorted run is replaced at least three times (two merges and a GC, or
	// more) and none of its tables is current any more.
	readers.Add(1)
	go func() {
		defer readers.Done()
		p := db.partitions()[0]
		lo := ref.window(0, nKeys)
		gcs := db.Metrics().GCs
		v := p.acquire()
		defer v.release()
		last, replaced := v.srt, 0
		deadline := time.Now().Add(60 * time.Second)
		for {
			cur := p.cur.Load()
			if cur.srt != last {
				last = cur.srt
				replaced++
			}
			shares := false
			for _, t := range cur.uns.Tables() {
				for _, old := range v.uns.Tables() {
					shares = shares || t == old
				}
			}
			if replaced >= 3 && !shares && db.Metrics().GCs > gcs {
				break
			}
			if time.Now().After(deadline) {
				fail(fmt.Errorf("partition %d's version was never left behind: run replaced %d times", p.id, replaced))
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
		for _, tbl := range tablesOf(v) {
			if !db.fs.Exists(tableName(p.dir, tbl.num)) {
				fail(fmt.Errorf("%s table %d of a held version was removed", tbl.tier, tbl.num))
			}
		}
		for _, n := range v.logs {
			if !db.fs.Exists(filepath.Join(db.vlogDir(), vlog.LogName(n))) {
				fail(fmt.Errorf("value log %d of a held version was removed", n))
			}
		}
		to := 0
		for to < nKeys && v.covers(stormKey(to)) {
			get(func(k []byte) ([]byte, error) { return v.get(k, math.MaxUint64, true) }, to, lo[to])
			to++
		}
		sc := getScanner(db, stormKey(to), 0)
		err := sc.scan(v, stormKey(0), math.MaxUint64)
		out := sc.out
		sc.release()
		if err != nil {
			fail(fmt.Errorf("scan of a held version: %w", err))
		} else if err := ref.checkScan(0, to, lo[:to], out); err != nil {
			fail(fmt.Errorf("held version: %w", err))
		}
	}()

	readers.Wait()
	stop.Store(true)
	writers.Wait()
	waitIdle(t, db)
	m := db.Metrics()
	if m.Flushes == 0 || m.Merges == 0 || m.ScanMerges == 0 || m.GCs == 0 || m.Splits == 0 {
		t.Errorf("the storm published too little: flushes=%d merges=%d scan-merges=%d gcs=%d splits=%d",
			m.Flushes, m.Merges, m.ScanMerges, m.GCs, m.Splits)
	}
	if m.BackgroundErrors != 0 || m.Degraded {
		t.Errorf("background errors: %d (%s)", m.BackgroundErrors, m.DegradedCause)
	}
	for i := 0; i < nKeys; i++ {
		get(db.Get, i, ref.acked[i].Load())
	}
	checkLogAccounting(t, db)
	checkFileSet(t, db)
}

// TestVersionSplitKeepsParentReadable: a reader that loaded a partition's
// version before it split still answers — for the keys that moved to the
// child too — because the version holds the pre-split tables; they leave
// the disk only when it lets go.
func TestVersionSplitKeepsParentReadable(t *testing.T) {
	db := openSmall(t, vfs.NewMem())
	defer db.Close()
	watchGauges(t, db, true)
	n := 0
	for ; liveGauges(db.partitions()[0]).size < db.opts.PartitionSizeLimit*3/4; n++ {
		if err := db.Put(key(n), val(n)); err != nil {
			t.Fatal(err)
		}
	}
	parent := db.partitions()[0]
	v := parent.acquire()
	seen := n
	for ; len(db.partitions()) == 1; n++ {
		if n > 100000 {
			t.Fatal("never split")
		}
		if err := db.Put(key(n), val(n)); err != nil {
			t.Fatal(err)
		}
	}
	boundary := parent.cur.Load().upper
	if boundary == nil || v.upper != nil {
		t.Fatalf("parent upper %q after the split, %q in the version held from before", boundary, v.upper)
	}
	moved := 0
	for i := 0; i < seen; i++ {
		if bytes.Compare(key(i), boundary) >= 0 {
			moved++
		}
		if !v.covers(key(i)) {
			t.Fatalf("held version disowns key %d", i)
		}
		got, err := v.get(key(i), math.MaxUint64, true)
		if err != nil || !bytes.Equal(got, val(i)) {
			t.Fatalf("key %d through the pre-split version: %q, %v", i, got, err)
		}
	}
	if moved == 0 {
		t.Fatal("no key the held version has seen moved to the child")
	}
	sc := getScanner(db, nil, seen)
	defer sc.release()
	if err := sc.scan(v, key(0), math.MaxUint64); err != nil || len(sc.out) != seen {
		t.Fatalf("scan through the pre-split version: %d pairs, %v", len(sc.out), err)
	}
	for _, tbl := range tablesOf(v) {
		if !db.fs.Exists(tableName(parent.dir, tbl.num)) {
			t.Fatalf("%s table %d of the held version was removed by the split", tbl.tier, tbl.num)
		}
	}
	v.release()
	checkLogAccounting(t, db)
	checkFileSet(t, db)
}
