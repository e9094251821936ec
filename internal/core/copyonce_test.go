package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"unikv/internal/vfs"
)

// Tests for the copy-once write path's contracts: files the parent
// commit's writers produced still open, the engine keeps nothing of a
// caller's buffers, maintenance outputs written in a few large units are
// still crash-safe at every write, and a torn large write loses nothing
// acknowledged.

// loadDir copies an on-disk directory tree into a fresh in-memory file
// system under the same relative names, so a test can open committed
// testdata without writing to it.
func loadDir(t *testing.T, root string) vfs.FS {
	t.Helper()
	fs := vfs.NewMem()
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		name := filepath.Join("db", rel)
		if info.IsDir() {
			return fs.MkdirAll(name)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return fs.WriteFile(name, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestOpensParentCommitDirectory opens testdata/parentdb — written by the
// parent commit's engine (testdata/parentdb-gen, exiting without Close) —
// under this code: the manifest, tables of both tiers, a hash checkpoint,
// five value logs and a WAL whose last record spans three fragments. Every
// key must come back, by Get and by Scan, and the store must keep working.
func TestOpensParentCommitDirectory(t *testing.T) {
	pkey := func(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
	pval := func(i int) []byte {
		n := 40
		if i%200 == 50 {
			n = 40 << 10
		}
		return []byte(fmt.Sprintf("value-%06d-%s", i, bytes.Repeat([]byte{byte('a' + i%26)}, n)))
	}
	// The generator's recipe, replayed into a model.
	want := map[string][]byte{}
	for i := 0; i < 600; i++ {
		want[string(pkey(i))] = pval(i)
	}
	for i := 0; i < 200; i += 2 {
		want[string(pkey(i))] = pval(i + 1000)
	}
	for i := 0; i < 100; i += 5 {
		delete(want, string(pkey(i)))
	}
	for i := 300; i < 330; i++ {
		want[string(pkey(i))] = pval(i + 2000)
	}
	for i := 600; i < 620; i++ { // the WAL tail
		want[string(pkey(i))] = pval(i)
	}
	want[string(pkey(620))] = bytes.Repeat([]byte("w"), 70<<10)
	delete(want, string(pkey(601)))

	fs := loadDir(t, filepath.Join("testdata", "parentdb"))
	opts := Options{
		FS: fs, MemtableSize: 8 << 10, UnsortedLimit: 32 << 10, ScanMergeLimit: 3,
		PartitionSizeLimit: 1 << 20, MaxLogSize: 32 << 10, TargetTableSize: 8 << 10,
		HashBuckets: 1 << 10,
	}
	db, err := Open("db", opts)
	if err != nil {
		t.Fatalf("open parent-commit directory: %v", err)
	}
	defer db.Close()
	check := func(stage string) {
		t.Helper()
		for i := 0; i <= 620; i++ {
			got, err := db.Get(pkey(i))
			w, ok := want[string(pkey(i))]
			switch {
			case !ok && err != ErrNotFound:
				t.Fatalf("%s: deleted key %d resurfaced: %d bytes, %v", stage, i, len(got), err)
			case ok && (err != nil || !bytes.Equal(got, w)):
				t.Fatalf("%s: key %d: %d bytes, %v; want %d bytes", stage, i, len(got), err, len(w))
			}
		}
		kvs, err := db.Scan(nil, nil, 0)
		if err != nil || len(kvs) != len(want) {
			t.Fatalf("%s: scan returned %d pairs, %v; want %d", stage, len(kvs), err, len(want))
		}
		for _, kv := range kvs {
			if !bytes.Equal(kv.Value, want[string(kv.Key)]) {
				t.Fatalf("%s: scan value of %s differs", stage, kv.Key)
			}
		}
	}
	check("after open")
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	// New-format writes on top of old-format files, through a merge.
	for i := 700; i < 900; i++ {
		if err := db.Put(pkey(i), pval(i)); err != nil {
			t.Fatal(err)
		}
		want[string(pkey(i))] = pval(i)
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	for i := 621; i < 700; i++ { // absent, but inside check's range
		delete(want, string(pkey(i)))
	}
	check("after compaction")
}

// TestCallerBuffersNotRetained: the engine copies what it keeps. The
// caller's key and value buffers are scribbled over the moment Put and
// ApplyBatch return, and nothing readable changes — not the memtable (Get,
// Scan), not the flush output, not the WAL replay after a crash.
func TestCallerBuffersNotRetained(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			fs := vfs.NewMem()
			opts := smallOpts(fs)
			opts.BackgroundWorkers = workers
			opts.MemtableSize = 1 << 20 // everything stays in the memtable until Flush
			db, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			const n = 300
			kbuf := make([]byte, 0, 32)
			vbuf := make([]byte, 0, 128)
			scribble := func() {
				for i := range kbuf[:cap(kbuf)] {
					kbuf[:cap(kbuf)][i] = 0xff
				}
				for i := range vbuf[:cap(vbuf)] {
					vbuf[:cap(vbuf)][i] = 0xff
				}
			}
			b := NewBatch()
			for i := 0; i < n; i++ {
				kbuf = append(kbuf[:0], key(i)...)
				vbuf = append(vbuf[:0], val(i)...)
				if i%3 == 0 {
					b.Put(kbuf, vbuf)
					scribble() // Batch.Put copied
					if err := db.ApplyBatch(b); err != nil {
						t.Fatal(err)
					}
					b.Reset()
				} else if err := db.Put(kbuf, vbuf); err != nil {
					t.Fatal(err)
				}
				scribble()
			}
			check := func(db *DB, stage string) {
				t.Helper()
				for i := 0; i < n; i++ {
					if got, err := db.Get(key(i)); err != nil || !bytes.Equal(got, val(i)) {
						t.Fatalf("%s: key %d = %q, %v", stage, i, got, err)
					}
				}
				kvs, err := db.Scan(nil, nil, 0)
				if err != nil || len(kvs) != n {
					t.Fatalf("%s: scan: %d pairs, %v", stage, len(kvs), err)
				}
				for i, kv := range kvs {
					if !bytes.Equal(kv.Key, key(i)) || !bytes.Equal(kv.Value, val(i)) {
						t.Fatalf("%s: scan pair %d = %q", stage, i, kv.Key)
					}
				}
			}
			check(db, "memtable")

			// WAL replay: a second handle over the same files, as after a crash.
			crashed := vfs.NewMem()
			copyFS(t, fs, crashed)
			db2, err := Open("db", smallOpts(crashed))
			if err != nil {
				t.Fatal(err)
			}
			check(db2, "wal replay")
			db2.Close()

			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			check(db, "flush output")
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// copyFS copies every file under "db" from src to dst.
func copyFS(t *testing.T, src, dst vfs.FS) {
	t.Helper()
	var walk func(dir string)
	walk = func(dir string) {
		if err := dst.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		names, err := src.List(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			path := filepath.Join(dir, name)
			if data, err := src.ReadFile(path); err == nil {
				if name == "LOCK" {
					continue
				}
				if err := dst.WriteFile(path, data); err != nil {
					t.Fatal(err)
				}
				continue
			}
			walk(path)
		}
	}
	walk("db")
}

// crashCase drives a store with one writer, deterministically (a pool
// settles between puts), to the put that runs one maintenance cycle, so a
// fault can be armed at every file system write that single put causes.
type crashCase struct {
	name    string
	opts    func(vfs.FS) Options
	counter func(*DB) int64 // the maintenance counter the trigger put bumps
	// patterns lists the file classes the cycle must write to — with fewer,
	// larger writes the op-index space shrinks, its coverage must not.
	patterns []string
}

// crashStream is the workload: overwrites over a small key space, so the
// value logs fill with garbage and merges are followed by GCs.
func crashPut(db *DB, i int) error { return db.Put(key(i%150), val(i)) }

// replay applies the first n puts of the stream.
func (c crashCase) replay(t *testing.T, fs vfs.FS, n int) *DB {
	t.Helper()
	db, err := Open("db", c.opts(fs))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := crashPut(db, i); err != nil {
			t.Fatalf("fault-free put %d: %v", i, err)
		}
		settle(db)
	}
	return db
}

// TestCrashAtEveryWriteIndex arms a sticky fault at EVERY mutating file
// system operation of one flush, one merge (tables plus the batched value
// log append) and one GC, crashes there, reopens, and checks that every
// acknowledged put survived and the in-flight one is whole or absent. It
// does so on both executors: the job bodies are the same, but a worker
// commits behind the put's acknowledgement and retries before it gives up.
func TestCrashAtEveryWriteIndex(t *testing.T) {
	for _, workers := range executors {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { crashAtEveryWriteIndex(t, workers) })
	}
}

func crashAtEveryWriteIndex(t *testing.T, workers int) {
	syncSmall := func(fs vfs.FS) Options {
		o := smallOpts(fs)
		o.SyncWrites = true
		o.exp.DisablePartitioning = true
		o.GCRatio = 0.2
		o.BackgroundWorkers = workers
		return o
	}
	cases := []crashCase{
		{"flush", syncSmall, func(db *DB) int64 { return db.stats.Flushes.Load() }, []string{"*.sst", "*.wal", "MANIFEST-*"}},
		{"merge", syncSmall, func(db *DB) int64 { return db.stats.Merges.Load() }, []string{"*.sst", "*.log", "MANIFEST-*"}},
		{"gc", syncSmall, func(db *DB) int64 { return db.stats.GCs.Load() }, []string{"*.sst", "*.log", "MANIFEST-*"}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			// Dry run: which put triggers the cycle? (Skip the first cycle of
			// each kind so the store has all tiers populated.)
			dry := c.replay(t, vfs.NewMem(), 0)
			trigger := -1
			seen := 0
			for i := 0; i < 5000; i++ {
				before := c.counter(dry)
				if err := crashPut(dry, i); err != nil {
					t.Fatal(err)
				}
				settle(dry)
				if c.counter(dry) > before {
					if seen++; seen == 2 {
						trigger = i
						break
					}
				}
			}
			dry.Close()
			if trigger < 0 {
				t.Fatalf("the stream never ran a second %s", c.name)
			}

			// Count the trigger put's mutating ops, in all and per file class.
			count := func(pattern string) int64 {
				ffs := vfs.NewFail(vfs.NewMem())
				db := c.replay(t, ffs, trigger)
				ffs.ArmPlan(vfs.FailPlan{Fail: 0, Pattern: pattern})
				if err := crashPut(db, trigger); err != nil {
					t.Fatal(err)
				}
				settle(db)
				n := ffs.MatchedOps()
				ffs.Disarm()
				db.Close()
				return n
			}
			n := count("")
			for _, pat := range c.patterns {
				if count(pat) == 0 {
					t.Errorf("the %s cycle never touched a %s file: no fault point covers that class", c.name, pat)
				}
			}
			t.Logf("%s: put %d issues %d mutating ops", c.name, trigger, n)

			for idx := int64(0); idx < n; idx++ {
				inner := vfs.NewMem()
				ffs := vfs.NewFail(inner)
				db := c.replay(t, ffs, trigger)
				ffs.ArmPlan(vfs.FailPlan{Skip: idx, Fail: -1})
				putErr := crashPut(db, trigger)
				settle(db)
				park(db) // abandon db: the crash
				ffs.Disarm()

				db2, err := Open("db", smallOpts(inner))
				if err != nil {
					t.Fatalf("idx %d: reopen: %v", idx, err)
				}
				acked := map[int]int{} // key number → its newest acknowledged version
				for i := 0; i < trigger; i++ {
					acked[i%150] = i
				}
				for k, ver := range acked {
					got, err := db2.Get(key(k))
					okOld := err == nil && bytes.Equal(got, val(ver))
					okNew := k == trigger%150 && err == nil && bytes.Equal(got, val(trigger))
					if k == trigger%150 && putErr == nil {
						okOld = false // the trigger put was acknowledged too
					}
					if !okOld && !okNew {
						t.Fatalf("idx %d (put err %v): key %d = %q, %v; want version %d", idx, putErr, k, got, err, ver)
					}
				}
				if err := db2.VerifyIntegrity(); err != nil {
					t.Fatalf("idx %d: %v", idx, err)
				}
				checkFileSet(t, db2)
				if err := db2.Put([]byte("post-crash"), []byte("ok")); err != nil {
					t.Fatalf("idx %d: write after recovery: %v", idx, err)
				}
				db2.Close()
			}
		})
	}
}

// TestTornLargeWrites: the copy-once path hands the file system large
// buffers — a whole table, a batch of values, a multi-fragment WAL record —
// and a real file system can fail such a write after landing part of it.
// One case per file class: the write is torn mid-buffer, the process dies
// there, and the store reopens with every acknowledged key intact.
func TestTornLargeWrites(t *testing.T) {
	big := bytes.Repeat([]byte("B"), 100<<10)
	for _, c := range []struct {
		name    string
		pattern string
		torn    int
		opts    func(*Options)
		// last writes the put the fault is armed for (after n acked puts).
		last func(db *DB) error
	}{
		// A 4 MiB memtable of 1 KiB values flushes as one table-sized Write.
		{"table", "*.sst", 1 << 20, func(o *Options) { *o = Options{FS: o.FS, SyncWrites: true} }, nil},
		// Merge output: the batched value-log append.
		{"vlog-batch", "*.log", 10 << 10, func(o *Options) { o.MaxLogSize = 1 << 20 }, nil},
		// A 100 KiB record is four WAL fragments in one Write.
		{"wal-record", "*.wal", 40000, func(o *Options) { o.MemtableSize = 1 << 20 }, func(db *DB) error { return db.Put([]byte("big"), big) }},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			inner := vfs.NewMem()
			ffs := vfs.NewFail(inner)
			opts := smallOpts(ffs)
			opts.SyncWrites = true
			c.opts(&opts)
			db, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			v := bytes.Repeat([]byte("v"), 1024)
			wkey := func(i int) []byte { return []byte(fmt.Sprintf("torn-%08d", i)) }
			acked := 0
			if c.last != nil {
				for ; acked < 50; acked++ {
					if err := db.Put(wkey(acked), v); err != nil {
						t.Fatal(err)
					}
				}
			}
			ffs.ArmPlan(vfs.FailPlan{Fail: -1, Kinds: vfs.OpWrite, Pattern: c.pattern, TornBytes: c.torn})
			// From here every write to the class is torn: the first one ends the run.
			var stop error
			if c.last != nil {
				stop = c.last(db)
			} else {
				for ; acked < 20000 && stop == nil; acked++ {
					stop = db.Put(wkey(acked), v)
				}
				acked-- // the failing put was not acknowledged
			}
			if stop == nil || ffs.InjectedOps() == 0 {
				t.Fatalf("no %s write was torn (%d puts, err %v)", c.pattern, acked, stop)
			}
			ffs.Disarm() // abandon db: the crash

			ropts := opts
			ropts.FS = inner
			db2, err := Open("db", ropts)
			if err != nil {
				t.Fatalf("reopen after a torn %s write: %v", c.pattern, err)
			}
			defer db2.Close()
			for i := 0; i < acked; i++ {
				if got, err := db2.Get(wkey(i)); err != nil || !bytes.Equal(got, v) {
					t.Fatalf("acked key %d of %d lost after a torn %s write: %d bytes, %v", i, acked, c.pattern, len(got), err)
				}
			}
			if got, err := db2.Get([]byte("big")); err == nil && !bytes.Equal(got, big) {
				t.Fatalf("torn WAL record replayed as %d garbage bytes", len(got))
			}
			if err := db2.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTornWALWriteThenKeepWriting: a WAL write torn by a passing fault
// must not cost later, acknowledged puts. Replay stops at the tear, so the
// partition retires that WAL with its memtable and logs onward in a fresh
// one; after a crash everything acknowledged on either side of the tear is
// there, and the failed put is not.
func TestTornWALWriteThenKeepWriting(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			inner := vfs.NewMem()
			ffs := vfs.NewFail(inner)
			opts := smallOpts(ffs)
			opts.SyncWrites = true
			opts.BackgroundWorkers = workers
			opts.MemtableSize = 1 << 20
			db, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				if err := db.Put(key(i), val(i)); err != nil {
					t.Fatal(err)
				}
			}
			ffs.ArmPlan(vfs.FailPlan{Fail: 1, Kinds: vfs.OpWrite, Pattern: "*.wal", TornBytes: 40000})
			err = db.Put([]byte("torn"), bytes.Repeat([]byte("T"), 100<<10))
			if !errors.Is(err, vfs.ErrInjected) {
				t.Fatalf("torn put: %v", err)
			}
			for i := 20; i < 40; i++ {
				if err := db.Put(key(i), val(i)); err != nil {
					t.Fatalf("put %d after the torn write: %v", i, err)
				}
			}
			if db.Metrics().Degraded {
				t.Fatal("a single torn WAL write degraded the store")
			}
			// Crash: reopen the bytes that reached the file system.
			park(db)
			db2, err := Open("db", smallOpts(inner))
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			for i := 0; i < 40; i++ {
				if got, err := db2.Get(key(i)); err != nil || !bytes.Equal(got, val(i)) {
					t.Fatalf("acked key %d lost around a torn WAL write: %q, %v", i, got, err)
				}
			}
			if _, err := db2.Get([]byte("torn")); err != ErrNotFound {
				t.Fatalf("the failed put resurfaced: %v", err)
			}
		})
	}
}

// TestTornWALRotationKeepsFrozenWAL: a WAL write tears right after a freeze,
// while the frozen memtable still waits for its flush, so the next write
// moves the empty live memtable off the torn WAL. The manifest's WAL pointer
// must stay at the frozen memtable's WAL; when the rotation pointed it at the
// fresh WAL, a crash before the flush lost every key the frozen memtable
// held.
func TestTornWALRotationKeepsFrozenWAL(t *testing.T) {
	inner := vfs.NewMem()
	ffs := vfs.NewFail(inner)
	opts := smallOpts(ffs)
	opts.SyncWrites = true
	opts.BackgroundWorkers = 1
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{}) // the worker stays parked: it belongs to the dead handle
	db.testHookJobStart = func(*partition, jobKind) { <-block }
	n := 0
	for ; db.Metrics().ImmutableMemtables == 0; n++ {
		if err := db.Put(key(n), val(n)); err != nil {
			t.Fatal(err)
		}
	}
	ffs.ArmPlan(vfs.FailPlan{Fail: 1, Kinds: vfs.OpWrite, Pattern: "*.wal", TornBytes: 5})
	if err := db.Put([]byte("torn"), []byte("x")); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("torn put: %v", err)
	}
	ffs.Disarm()
	if err := db.Put([]byte("after"), []byte("y")); err != nil {
		t.Fatal(err)
	}
	inner.(vfs.LockDropper).DropLocks()
	db2, err := Open("db", smallOpts(inner))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < n; i++ {
		if got, err := db2.Get(key(i)); err != nil || !bytes.Equal(got, val(i)) {
			t.Fatalf("key %d of the frozen memtable: %q, %v", i, got, err)
		}
	}
	if got, err := db2.Get([]byte("after")); err != nil || string(got) != "y" {
		t.Fatalf("the put after the rotation: %q, %v", got, err)
	}
}

// TestMaintenanceLeavesCacheResidentsAlone: merges iterate tables they are
// about to delete; those blocks must not push the read path's residents —
// here hot values in the shared cache — out. Flushes hand the store their
// keys (no table read) and scan merge is off, so with maintenance reading
// through the cache without filling it, nothing at all is evicted.
func TestMaintenanceLeavesCacheResidentsAlone(t *testing.T) {
	fs := vfs.NewMem()
	opts := smallOpts(fs)
	opts.exp.BlockSize = 512
	opts.CacheBytes = 48 << 10 // 3 KiB shards: the hot set fits, one merge's input overflows every one
	opts.HotRingEntries = HotRingOff
	opts.exp.DisableScanMerge = true
	opts.PartitionSizeLimit = 1 << 30
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 2000; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	hot := func() {
		t.Helper()
		for i := 0; i < 2000; i += 100 {
			if got, err := db.Get(key(i)); err != nil || !bytes.Equal(got, val(i)) {
				t.Fatalf("hot key %d: %q, %v", i, got, err)
			}
		}
	}
	// The first pass fills the blocks and admits the values (cold admission
	// never evicts). The resident set is exact once a pass changes nothing:
	// as many hits as the pass before, no entry added or evicted. (In shards
	// too small for the hot set its blocks evict some of its values within
	// every pass, and "hit in a pass" undercounts "resident after it".)
	var resident int64
	before := db.Metrics()
	for pass, settled := 0, false; !settled; pass++ {
		if pass == 10 {
			t.Fatalf("the hot set did not settle in %d passes", pass)
		}
		hot()
		m := db.Metrics()
		hits := m.CacheValueHits - before.CacheValueHits
		settled = pass > 0 && hits == resident &&
			m.CacheEntries == before.CacheEntries && m.CacheEvictions == before.CacheEvictions
		resident, before = hits, m
	}
	if resident < 10 {
		t.Fatalf("only %d of 20 hot values became cache residents", resident)
	}
	for i := 2000; i < 3500; i++ { // new keys: flushes and merges, no GC
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	mid := db.Metrics()
	if mid.Merges-before.Merges < 3 || mid.GCs != before.GCs {
		t.Fatalf("want merges and no GC: %d merges, %d GCs", mid.Merges-before.Merges, mid.GCs-before.GCs)
	}
	if n := mid.CacheEvictions - before.CacheEvictions; n != 0 {
		t.Fatalf("%d merges evicted %d cache entries", mid.Merges-before.Merges, n)
	}
	hot()
	after := db.Metrics()
	if hits := after.CacheValueHits - mid.CacheValueHits; hits != resident {
		t.Fatalf("%d of %d resident hot values survived the merges in the cache", hits, resident)
	}
}

// TestColdGetAllocatesOnlyItsValue: a get that goes all the way down — ring
// miss into a full set, memtable miss, hash-index miss, SortedStore block
// resident in the cache, value read from its log — into a cache too full to
// admit the value allocates once: the buffer it returns.
func TestColdGetAllocatesOnlyItsValue(t *testing.T) {
	const keys = 1000
	fs := vfs.NewMem()
	opts := smallOpts(fs)
	opts.CacheBytes = 256 << 10 // a quarter of the values
	opts.PartitionSizeLimit = 1 << 30
	// A ring of 16 one-set shards, which the even keys below fill: a miss
	// into a set with an empty way installs the value it reads (the ring's
	// own copy), which is not the path under test.
	opts.HotRingEntries = 128
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var ks, want [keys][]byte
	for i := range want {
		ks[i], want[i] = key(i), bytes.Repeat(val(i), 20) // ~1 KiB
		if err := db.Put(ks[i], want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	// Reading the even keys makes every block resident (a block add
	// evicts) and fills what room is left with their values (a cold add
	// does not). The odd keys are then each read for the first time, so the
	// ring has no reason to call one warm.
	for i := 0; i < keys; i += 2 {
		if _, err := db.Get(ks[i]); err != nil {
			t.Fatal(err)
		}
	}
	before := db.Metrics()
	next := 1
	allocs := testing.AllocsPerRun(keys/2-1, func() {
		if got, err := db.Get(ks[next]); err != nil || !bytes.Equal(got, want[next]) {
			t.Fatalf("key %d: %v", next, err)
		}
		next += 2
	})
	after := db.Metrics()
	if after.CacheBlockMisses != before.CacheBlockMisses || after.CacheValueHits != before.CacheValueHits ||
		after.CacheEntries != before.CacheEntries || after.CacheEvictions != before.CacheEvictions ||
		after.HotRingHits != before.HotRingHits {
		t.Fatalf("not the path under test:\nbefore %+v\nafter  %+v", before, after)
	}
	if allocs != 1 && !raceEnabled {
		t.Fatalf("a cold get allocates %v times, want 1 (the returned value)", allocs)
	}
}
