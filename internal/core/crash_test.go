package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"unikv/internal/vfs"
	"unikv/internal/vlog"
)

// TestCrashDuringLoad kills the engine at many different write-op counts
// during a synced load and verifies that, after reopening, (a) the DB opens
// cleanly and (b) every key acknowledged before the crash is present.
func TestCrashDuringLoad(t *testing.T) {
	for _, failAt := range []int64{5, 25, 60, 120, 250, 500, 900, 1500, 2500} {
		failAt := failAt
		t.Run(fmt.Sprintf("failAt=%d", failAt), func(t *testing.T) {
			inner := vfs.NewMem()
			ffs := vfs.NewFail(inner)
			opts := smallOpts(ffs)
			opts.SyncWrites = true
			db, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			ffs.Arm(failAt)
			acked := 0
			for i := 0; i < 800; i++ {
				if err := db.Put(key(i), val(i)); err != nil {
					break
				}
				acked = i + 1
			}
			// Do not Close: simulate the crash by abandoning the handle.
			ffs.Disarm()

			opts2 := smallOpts(inner)
			db2, err := Open("db", opts2)
			if err != nil {
				t.Fatalf("reopen after crash at %d writes: %v", failAt, err)
			}
			defer db2.Close()
			for i := 0; i < acked; i++ {
				got, err := db2.Get(key(i))
				if err != nil || !bytes.Equal(got, val(i)) {
					t.Fatalf("acked key %d (of %d) lost after crash at %d: %v",
						i, acked, failAt, err)
				}
			}
			// The DB is fully usable after recovery.
			if err := db2.Put([]byte("post-crash"), []byte("ok")); err != nil {
				t.Fatal(err)
			}
			if got, _ := db2.Get([]byte("post-crash")); string(got) != "ok" {
				t.Fatal("write after recovery failed")
			}
		})
	}
}

// TestCrashDuringGC arms the failure just before GC work happens and
// verifies the redo protocol: old state intact, orphans swept — the disk
// holds exactly the files the recovered state names — every key readable.
func TestCrashDuringGC(t *testing.T) {
	for _, workers := range executors {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { crashDuringGC(t, workers) })
	}
}

func crashDuringGC(t *testing.T, workers int) {
	inner := vfs.NewMem()
	ffs := vfs.NewFail(inner)
	opts := smallOpts(ffs)
	opts.GCRatio = 0.2
	opts.exp.DisablePartitioning = true
	opts.BackgroundWorkers = workers
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	// Build up garbage so the next merge triggers GC, then arm a small
	// budget mid-stream.
	latest := map[int]int{}
	for round := 0; round < 10; round++ {
		for i := 0; i < 100; i++ {
			db.Put(key(i), val(i*7+round))
			settle(db)
			latest[i] = i*7 + round
		}
	}
	ffs.Arm(40)
	// Keep writing until the injected failure surfaces.
	for i := 0; i < 10000 && !ffs.Failed(); i++ {
		k := i % 100
		err := db.Put(key(k), val(k*7+100+i))
		settle(db)
		if err != nil {
			break
		}
		latest[k] = k*7 + 100 + i
	}
	if !ffs.Failed() {
		t.Skip("failure point not reached (layout changed); test vacuous")
	}
	park(db)
	ffs.Disarm()

	db2, err := Open("db", smallOpts(inner))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	checkFileSet(t, db2)
	// Every key must resolve to SOME acked value — in-flight overwrites may
	// or may not have landed, but the pointer chain must be intact (no
	// dangling value pointers).
	for i := 0; i < 100; i++ {
		got, err := db2.Get(key(i))
		if err != nil {
			t.Fatalf("key %d unreadable after crash: %v", i, err)
		}
		if len(got) == 0 {
			t.Fatalf("key %d empty after crash", i)
		}
	}
}

// TestCrashEverywhereScan sweeps failure points over a mixed workload,
// checking after each crash that the DB reopens and a full scan works
// without dangling pointers.
func TestCrashEverywhereScan(t *testing.T) {
	if testing.Short() {
		t.Skip("long crash sweep")
	}
	for failAt := int64(10); failAt <= 2000; failAt += 97 {
		inner := vfs.NewMem()
		ffs := vfs.NewFail(inner)
		opts := smallOpts(ffs)
		opts.SyncWrites = true
		opts.GCRatio = 0.25
		db, err := Open("db", opts)
		if err != nil {
			t.Fatal(err)
		}
		ffs.Arm(failAt)
		rnd := rand.New(rand.NewSource(failAt))
		acked := map[string]string{}
		// The op that hits the injected failure is "in flight": its WAL
		// record may or may not be durable, so both outcomes are legal.
		inflightKey, inflightVal := "", ""
		inflightDel := false
		for i := 0; i < 1200; i++ {
			k := fmt.Sprintf("key-%04d", rnd.Intn(300))
			v := fmt.Sprintf("val-%d", i)
			if rnd.Intn(10) == 0 {
				if err := db.Delete([]byte(k)); err != nil {
					inflightKey, inflightDel = k, true
					break
				}
				delete(acked, k)
			} else {
				if err := db.Put([]byte(k), []byte(v)); err != nil {
					inflightKey, inflightVal = k, v
					break
				}
				acked[k] = v
			}
		}
		ffs.Disarm()

		db2, err := Open("db", smallOpts(inner))
		if err != nil {
			t.Fatalf("failAt=%d reopen: %v", failAt, err)
		}
		kvs, err := db2.Scan([]byte("key-"), nil, 0)
		if err != nil {
			t.Fatalf("failAt=%d scan: %v", failAt, err)
		}
		got := map[string]string{}
		for _, kv := range kvs {
			got[string(kv.Key)] = string(kv.Value)
		}
		for k, v := range acked {
			if k == inflightKey {
				continue
			}
			if got[k] != v {
				t.Fatalf("failAt=%d: key %s = %q want %q", failAt, k, got[k], v)
			}
		}
		// The in-flight key may hold its old acked value, the in-flight
		// value, or (for an in-flight delete) be absent.
		if inflightKey != "" {
			g, present := got[inflightKey]
			old, hadOld := acked[inflightKey]
			okOld := hadOld && present && g == old
			okNew := !inflightDel && present && g == inflightVal
			okGone := (inflightDel || !hadOld) && !present
			if !okOld && !okNew && !okGone {
				t.Fatalf("failAt=%d: in-flight key %s in invalid state %q (present=%v)",
					failAt, inflightKey, g, present)
			}
		}
		// No phantom keys beyond acked ∪ {inflight}.
		for k := range got {
			if _, ok := acked[k]; !ok && k != inflightKey {
				t.Fatalf("failAt=%d: phantom key %s", failAt, k)
			}
		}
		db2.Close()
	}
}

// TestCrashLosesUnsyncedDirEntries models a whole-machine power loss with
// memFS's Crash(): only bytes fsynced through File.Sync survive, and only
// files whose directory entry was SyncDir'd are findable at all. Every
// publish point (WAL creation, manifest swap, table publish, vlog
// rotation) must pair its file sync with a directory sync, or an
// acknowledged write vanishes with its file.
func TestCrashLosesUnsyncedDirEntries(t *testing.T) {
	for _, n := range []int{3, 50, 400, 1200} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			fs := vfs.NewMem()
			opts := smallOpts(fs)
			opts.SyncWrites = true
			db, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := db.Put(key(i), val(i)); err != nil {
					t.Fatal(err)
				}
			}
			// Power loss: abandon the handle (no Close — Close syncs) and
			// drop everything that is not durable.
			fs.(vfs.Crasher).Crash()

			db2, err := Open("db", smallOpts(fs))
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			defer db2.Close()
			for i := 0; i < n; i++ {
				got, err := db2.Get(key(i))
				if err != nil || !bytes.Equal(got, val(i)) {
					t.Fatalf("acked key %d of %d lost to power loss: %v", i, n, err)
				}
			}
		})
	}
}

// TestCrashSweepCacheVariants reruns a crash sweep with the read cache in
// both non-default configurations — tiny (constant eviction and
// invalidation racing recovery-relevant state) and off — to show crash
// consistency does not depend on the cache's default sizing.
func TestCrashSweepCacheVariants(t *testing.T) {
	for _, cfg := range []struct {
		name  string
		bytes int64
	}{
		{"tiny", 256 << 10},
		{"off", CacheOff},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			for _, failAt := range []int64{20, 120, 700, 1800} {
				inner := vfs.NewMem()
				ffs := vfs.NewFail(inner)
				opts := smallOpts(ffs)
				opts.SyncWrites = true
				opts.GCRatio = 0.25
				opts.CacheBytes = cfg.bytes
				db, err := Open("db", opts)
				if err != nil {
					t.Fatal(err)
				}
				ffs.Arm(failAt)
				acked := 0
				for i := 0; i < 1500; i++ {
					k := i % 500
					if err := db.Put(key(k), val(k+i)); err != nil {
						break
					}
					acked = i + 1
				}
				ffs.Disarm()

				opts2 := smallOpts(inner)
				opts2.CacheBytes = cfg.bytes
				db2, err := Open("db", opts2)
				if err != nil {
					t.Fatalf("cache=%s failAt=%d reopen: %v", cfg.name, failAt, err)
				}
				// Every key overwritten before the in-flight op must hold
				// one of its acked values (overwrites make exact-value
				// tracking the sweep in TestCrashEverywhereScan's job; here
				// we assert no loss and no dangling pointers).
				for k := 0; k < 500 && k < acked; k++ {
					if _, err := db2.Get(key(k)); err != nil {
						t.Fatalf("cache=%s failAt=%d key %d unreadable: %v",
							cfg.name, failAt, k, err)
					}
				}
				db2.Close()
			}
		})
	}
}

// TestRecoveryUsesHashCheckpoint verifies the checkpoint actually reduces
// recovery work: with a checkpoint present, reopening reads less table data
// than a cold rebuild.
func TestRecoveryUsesHashCheckpoint(t *testing.T) {
	build := func(ckptEvery int) int64 { // negative: never checkpoint
		fs := vfs.NewMem()
		opts := smallOpts(fs)
		opts.exp.HashCheckpointEvery = ckptEvery
		// Size the index realistically relative to the data (the paper's
		// regime: index ≈ 1 % of UnsortedStore bytes) and keep everything
		// in the unsorted store (no merge) so recovery has index work.
		opts.HashBuckets = 512
		opts.UnsortedLimit = 1 << 30
		opts.PartitionSizeLimit = 1 << 30
		opts.ScanMergeLimit = 1 << 30
		db, err := Open("db", opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			db.Put(key(i), val(i))
		}
		db.Flush()
		// Abandon without Close (Close would flush; we want table replay
		// work at open). Note tables are already flushed. The abandoned
		// handle's directory lock dies with its "process".
		fs.(vfs.LockDropper).DropLocks()
		before := fs.Counters().Snapshot()
		db2, err := Open("db", opts)
		if err != nil {
			t.Fatal(err)
		}
		db2.Close()
		return fs.Counters().Snapshot().Sub(before).BytesRead
	}
	withCkpt := build(1)
	withoutCkpt := build(-1)
	if withCkpt >= withoutCkpt {
		t.Fatalf("checkpoint did not reduce recovery reads: with=%d without=%d",
			withCkpt, withoutCkpt)
	}
}

// TestCrashDuringSplit arms the failure budget right before a split is due
// and verifies the redo/orphan-sweep protocol: after reopening, either the
// pre-split or post-split state is installed, the disk holds exactly the
// files it names, every acknowledged key is present, and the routing
// invariants hold.
func TestCrashDuringSplit(t *testing.T) {
	// Sweep budgets to land the failure at different points inside the
	// split (pass-1 count, table writes, log writes, manifest commit).
	for _, workers := range executors {
		for _, budget := range []int64{3, 8, 15, 25, 40, 70} {
			workers, budget := workers, budget
			t.Run(fmt.Sprintf("workers=%d/budget=%d", workers, budget), func(t *testing.T) { crashDuringSplit(t, workers, budget) })
		}
	}
}

func crashDuringSplit(t *testing.T, workers int, budget int64) {
	inner := vfs.NewMem()
	ffs := vfs.NewFail(inner)
	opts := smallOpts(ffs)
	opts.SyncWrites = true
	opts.BackgroundWorkers = workers
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	// Load until just under the split point, then arm and push over.
	acked := 0
	target := 0
	for i := 0; ; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatalf("pre-split put %d: %v", i, err)
		}
		settle(db)
		acked = i + 1
		if liveGauges(db.partitions()[0]).size >= opts.PartitionSizeLimit*8/10 {
			target = i + 400
			break
		}
		if i > 100000 {
			t.Fatal("never approached the split point")
		}
	}
	ffs.Arm(budget)
	for i := acked; i < target; i++ {
		err := db.Put(key(i), val(i))
		settle(db)
		if err != nil {
			break
		}
		acked = i + 1
	}
	park(db)
	ffs.Disarm()

	db2, err := Open("db", smallOpts(inner))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	checkFileSet(t, db2)
	for i := 0; i < acked; i++ {
		got, err := db2.Get(key(i))
		if err != nil || !bytes.Equal(got, val(i)) {
			t.Fatalf("key %d of %d lost (budget=%d): %v", i, acked, budget, err)
		}
	}
	// Routing invariants.
	parts := db2.partitions()
	for i := 1; i < len(parts); i++ {
		if !bytes.Equal(parts[i-1].cur.Load().upper, parts[i].lower) {
			t.Fatalf("boundary mismatch after crash recovery")
		}
	}
	// Still writable; scans work.
	if err := db2.Put([]byte("post"), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	kvs, err := db2.Scan(key(0), nil, acked+10)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) < acked {
		t.Fatalf("scan found %d < acked %d", len(kvs), acked)
	}
}

// TestVerifyIntegrity: clean databases verify; flipped bits are found.
func TestVerifyIntegrity(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs)
	for i := 0; i < 1000; i++ {
		db.Put(key(i), val(i))
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("clean DB failed verification: %v", err)
	}
	db.Close()

	// Corrupt one table file of one partition and reopen.
	var victim string
	names, _ := fs.List("db/p1")
	for _, n := range names {
		if len(n) > 4 && n[len(n)-4:] == ".sst" {
			victim = "db/p1/" + n
			break
		}
	}
	if victim == "" {
		t.Skip("no table in p1")
	}
	data, _ := fs.ReadFile(victim)
	data[len(data)/3] ^= 0xff
	fs.WriteFile(victim, data)

	db2, err := Open("db", smallOpts(fs))
	if err != nil {
		// Corruption in meta/index surfaces at open; that also counts as
		// detection.
		return
	}
	defer db2.Close()
	if err := db2.VerifyIntegrity(); err == nil {
		t.Fatal("corruption not detected")
	}
	// Closed DB errors.
	db3 := openSmall(t, vfs.NewMem())
	db3.Close()
	if err := db3.VerifyIntegrity(); err != ErrClosed {
		t.Fatalf("%v", err)
	}
}

// TestVerifyIntegrityBesideGC runs VerifyIntegrityReport in a loop beside a
// pooled writer whose GCs retire value logs all the time. A clean store must
// verify clean: a log a GC removes is not corruption. The log walk used to
// take the log numbers from a version, release it and only then hold each
// log, so a GC in between made the walk report "file does not exist".
func TestVerifyIntegrityBesideGC(t *testing.T) {
	opts := bgOpts(vfs.NewMem())
	opts.BackgroundWorkers = 1
	opts.GCRatio = 0.05
	opts.MaxLogSize = 16 << 10
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	stop := make(chan struct{})
	writer := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				writer <- nil
				return
			default:
			}
			if err := db.Put(key(i%400), val(i)); err != nil {
				writer <- err
				return
			}
		}
	}()
	runs := 0
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); runs++ {
		reports, err := db.VerifyIntegrityReport()
		if err != nil || len(reports) > 0 {
			close(stop)
			t.Fatalf("run %d on a clean store: %v %v", runs, err, reports)
		}
	}
	close(stop)
	if err := <-writer; err != nil {
		t.Fatal(err)
	}
	if gcs := db.Metrics().GCs; gcs == 0 {
		t.Fatalf("no GC ran beside %d verifications", runs)
	}
	t.Logf("%d verifications beside %d GCs", runs, db.Metrics().GCs)
}

// TestVerifyLogsHoldsOnlyTheWalkedLog: the log walk behind VerifyIntegrity
// and the scrub — which the scrub paces, so one pass can take minutes —
// holds no log it has not reached. A GC that retires the logs ahead of the
// walk removes them at once, and the walk skips them rather than verifying
// dead files or reporting them missing.
func TestVerifyLogsHoldsOnlyTheWalkedLog(t *testing.T) {
	opts := smallOpts(vfs.NewMem())
	opts.exp.DisablePartitioning = true
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 600; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	p := db.partitions()[0]
	start := slices.Clone(p.cur.Load().logs)
	if len(start) < 3 {
		t.Fatalf("the partition names %d value logs, want at least 3", len(start))
	}
	var walked []uint32
	db.verifyLogs(nil, func(n uint32, _ []uint32, _ int64, err error) bool {
		if err != nil {
			t.Errorf("value log %d: %v", n, err)
		}
		walked = append(walked, n)
		checkLogAccounting(t, db) // holders are exactly the current versions
		if len(walked) > 1 {
			return true
		}
		p.maintMu.Lock()
		v := p.acquire()
		err = p.gc(v)
		v.release()
		p.maintMu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range start[1:] {
			if !p.cur.Load().hasLog(m) && db.fs.Exists(filepath.Join(db.vlogDir(), vlog.LogName(m))) {
				t.Errorf("value log %d outlived its retirement while the walk was on log %d", m, n)
			}
		}
		return true
	})
	for _, n := range walked[1:] {
		if !p.cur.Load().hasLog(n) {
			t.Errorf("the walk verified value log %d after a GC retired it", n)
		}
	}
	if len(walked) == len(start) {
		t.Errorf("the walk went through all %d logs; the GC retired none ahead of it", len(start))
	}
}
