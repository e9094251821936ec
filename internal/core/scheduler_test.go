package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"unikv/internal/vfs"
)

// bgOpts is smallOpts plus a worker pool, so every maintenance mechanism
// runs in the background during these tests.
func bgOpts(fs vfs.FS) Options {
	opts := smallOpts(fs)
	opts.BackgroundWorkers = 2
	return opts
}

// TestBackgroundBasic exercises the full write/read/scan/delete surface in
// background mode, then reopens inline and verifies the on-disk state is
// the same database.
func TestBackgroundBasic(t *testing.T) {
	leakCheck(t)
	fs := vfs.NewMem()
	db, err := Open("db", bgOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrites and deletes interleaved with background maintenance.
	for i := 0; i < n; i += 3 {
		if err := db.Put(key(i), val(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i += 5 {
		if err := db.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(db *DB) {
		t.Helper()
		for i := 0; i < n; i++ {
			got, err := db.Get(key(i))
			switch {
			case i%5 == 1:
				if err != ErrNotFound {
					t.Fatalf("deleted key %d: got %q, %v", i, got, err)
				}
			case i%3 == 0:
				if err != nil || !bytes.Equal(got, val(i+1)) {
					t.Fatalf("overwritten key %d: got %q, %v", i, got, err)
				}
			default:
				if err != nil || !bytes.Equal(got, val(i)) {
					t.Fatalf("key %d: got %q, %v", i, got, err)
				}
			}
		}
		kvs, err := db.Scan(key(0), key(40), 0)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for i := 0; i < 40; i++ {
			if i%5 != 1 {
				want++
			}
		}
		if len(kvs) != want {
			t.Fatalf("scan got %d keys, want %d", len(kvs), want)
		}
	}
	check(db)
	checkManifestMatchesVersions(t, db)
	m := db.Metrics()
	if m.Flushes == 0 || m.Merges == 0 {
		t.Fatalf("background maintenance never ran: %+v", m)
	}
	if m.BackgroundErrors != 0 {
		t.Fatalf("background errors: %d", m.BackgroundErrors)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with inline scheduling: the persisted state is mode-agnostic.
	db2, err := Open("db", smallOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	check(db2)
	checkManifestMatchesVersions(t, db2)
}

// TestBackgroundReopenWithFrozenMemtables closes while frozen memtables
// are still queued (Close drains them) and also reopens after an abandoned
// handle, where only the WAL files carry the frozen data.
func TestBackgroundReopenWithFrozenMemtables(t *testing.T) {
	leakCheck(t)
	fs := vfs.NewMem()
	opts := bgOpts(fs)
	opts.BackgroundWorkers = 1
	// Keep the write throttle out of the way: this test parks the flush
	// worker on purpose, and a stalled writer would deadlock against it.
	opts.SlowdownImmutables = 500
	opts.StallImmutables = 600
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	// Stall the flush worker so freezes accumulate.
	release := make(chan struct{})
	db.testHookJobStart = func(p *partition, k jobKind) {
		if k == jobFlush {
			<-release
		}
	}
	const n = 400
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Metrics().ImmutableMemtables; got == 0 {
		t.Fatal("no memtable froze; MemtableSize too large for the workload?")
	}
	// Reads must see frozen data.
	for i := 0; i < n; i++ {
		if got, err := db.Get(key(i)); err != nil || !bytes.Equal(got, val(i)) {
			t.Fatalf("key %d while frozen: %q, %v", i, got, err)
		}
	}
	close(release)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open("db", smallOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < n; i++ {
		if got, err := db2.Get(key(i)); err != nil || !bytes.Equal(got, val(i)) {
			t.Fatalf("key %d after reopen: %q, %v", i, got, err)
		}
	}
}

// TestBackgroundAbandonedHandle writes in background mode and abandons the
// handle without Close while frozen memtables are queued: recovery must
// replay the per-memtable WAL files (which carry the only copy of the
// frozen data).
func TestBackgroundAbandonedHandle(t *testing.T) {
	fs := vfs.NewMem()
	opts := bgOpts(fs)
	opts.BackgroundWorkers = 1
	opts.SlowdownImmutables = 500
	opts.StallImmutables = 600
	opts.SyncWrites = true
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	db.testHookJobStart = func(p *partition, k jobKind) { <-block }
	const n = 300
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Metrics().ImmutableMemtables; got == 0 {
		t.Fatal("no memtable froze")
	}
	// Abandon the handle: the frozen memtables only exist in their WALs.
	// (The worker stays parked on the hook; it belongs to the dead DB.)
	// The dead process's directory lock dies with it.
	fs.(vfs.LockDropper).DropLocks()
	db2, err := Open("db", smallOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < n; i++ {
		if got, err := db2.Get(key(i)); err != nil || !bytes.Equal(got, val(i)) {
			t.Fatalf("key %d after abandoned handle: %q, %v", i, got, err)
		}
	}
}

// TestBackgroundReopenTwiceAfterAbandonedHandle abandons a handle whose
// parked flushes left frozen memtables on WALs numbered above the
// manifest's file counter, reopens, overwrites and deletes keys, flushes,
// and abandons again. The recovery of the first reopen must allocate above
// the WALs it replayed: when it reused their numbers, the new WAL overwrote
// one of them, the stale ones outlived the next flush's WAL pointer, and
// the second reopen replayed them over the newer values.
func TestBackgroundReopenTwiceAfterAbandonedHandle(t *testing.T) {
	fs := vfs.NewMem()
	opts := bgOpts(fs)
	opts.BackgroundWorkers = 1
	opts.SlowdownImmutables = 500
	opts.StallImmutables = 600
	opts.SyncWrites = true
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{}) // the worker stays parked: it belongs to the dead handle
	db.testHookJobStart = func(p *partition, k jobKind) { <-block }
	const n = 300
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Metrics().ImmutableMemtables; got < 2 {
		t.Fatalf("%d frozen memtables; the test needs several WALs", got)
	}
	fs.(vfs.LockDropper).DropLocks()

	model := map[int][]byte{}
	for i := 0; i < n; i++ {
		model[i] = val(i)
	}
	db2, err := Open("db", smallOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 8 {
		if i%16 == 0 {
			model[i], err = nil, db2.Delete(key(i))
		} else {
			model[i], err = val(i+n), db2.Put(key(i), val(i+n))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db2.Flush(); err != nil {
		t.Fatal(err)
	}
	park(db2)
	fs.(vfs.LockDropper).DropLocks()

	db3, err := Open("db", smallOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	for i := 0; i < n; i++ {
		got, err := db3.Get(key(i))
		if model[i] == nil && err != ErrNotFound || model[i] != nil && (err != nil || !bytes.Equal(got, model[i])) {
			t.Errorf("key %d after the second reopen: %.20q, %v; want %.20q", i, got, err, model[i])
		}
	}
	checkFileSet(t, db3)
}

// TestBackgroundCrash randomizes a FailFS budget over a synced background
// load and verifies every acknowledged write survives reopening —
// the background-mode analogue of TestCrashDuringLoad (which keeps its
// deterministic arming points by running inline).
func TestBackgroundCrash(t *testing.T) {
	rng := rand.New(rand.NewSource(0xBADC0DE))
	for round := 0; round < 8; round++ {
		failAt := 20 + rng.Int63n(2000)
		t.Run(fmt.Sprintf("failAt=%d", failAt), func(t *testing.T) {
			inner := vfs.NewMem()
			ffs := vfs.NewFail(inner)
			opts := bgOpts(ffs)
			opts.SyncWrites = true
			db, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			ffs.Arm(failAt)
			acked := 0
			for i := 0; i < 1200; i++ {
				if err := db.Put(key(i), val(i)); err != nil {
					break
				}
				acked = i + 1
			}
			// Give in-flight jobs a moment to hit the armed failure too.
			for i := 0; i < 100 && !ffs.Failed(); i++ {
				time.Sleep(time.Millisecond)
			}
			// Abandon the handle (no Close: simulate the crash) — but park
			// its workers first, while the FS is still armed, so no job of
			// the dead instance mutates the disk after "power-off".
			park(db)
			ffs.Disarm()

			db2, err := Open("db", smallOpts(inner))
			if err != nil {
				t.Fatalf("reopen after crash at %d ops: %v", failAt, err)
			}
			defer db2.Close()
			for i := 0; i < acked; i++ {
				got, err := db2.Get(key(i))
				if err != nil || !bytes.Equal(got, val(i)) {
					t.Fatalf("acked key %d (of %d) lost after crash at %d: %v",
						i, acked, failAt, err)
				}
			}
			if err := db2.Put([]byte("post-crash"), []byte("ok")); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBackgroundReadsDuringMerge verifies the tentpole latency property:
// while one partition is mid-merge in the background, reads and writes on
// another partition (and reads on the merging one) complete within a tight
// bound instead of waiting for the merge.
func TestBackgroundReadsDuringMerge(t *testing.T) {
	leakCheck(t)
	fs := vfs.NewMem()
	// Load inline until the database has split into 2+ partitions.
	db0, err := Open("db", smallOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000 && len(db0.partitions()) < 2; i++ {
		if err := db0.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(db0.partitions()) < 2 {
		t.Skip("workload never split; partition sizing changed")
	}
	if err := db0.Close(); err != nil {
		t.Fatal(err)
	}

	db, err := Open("db", bgOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	parts := db.partitions()
	busy := parts[len(parts)-1] // partition B: gets the merge
	idleKey := key(0)           // partition A: first partition's range

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	db.testHookMergeBuild = func(p *partition) {
		if p == busy {
			once.Do(func() { close(entered) })
			<-release
		}
	}
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	// Fill partition B's UnsortedStore past the merge trigger. Keys above
	// its lower bound route to it (it is the last partition).
	busyKey := func(i int) []byte {
		return append(append([]byte(nil), busy.lower...), fmt.Sprintf("~busy-%06d", i)...)
	}
	go func() {
		for i := 0; i < 20000; i++ {
			select {
			case <-entered:
				return
			default:
			}
			if err := db.Put(busyKey(i), val(i)); err != nil {
				return
			}
		}
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("merge job never started on the busy partition")
	}

	// Partition B is now parked inside its merge, built but not committed.
	// Operations elsewhere (and reads on B itself) must not wait for it.
	const bound = 2 * time.Second
	ops := []struct {
		name string
		fn   func() error
	}{
		{"get-idle", func() error { _, err := db.Get(idleKey); return err }},
		{"put-idle", func() error { return db.Put([]byte("key-000000-x"), []byte("v")) }},
		{"scan-idle", func() error { _, err := db.Scan(key(0), key(50), 10); return err }},
		{"get-busy", func() error { _, err := db.Get(busyKey(0)); return err }},
	}
	for _, op := range ops {
		done := make(chan error, 1)
		start := time.Now()
		go func() { done <- op.fn() }()
		select {
		case err := <-done:
			if err != nil && err != ErrNotFound {
				t.Fatalf("%s during merge: %v", op.name, err)
			}
			t.Logf("%s completed in %v", op.name, time.Since(start))
		case <-time.After(bound):
			t.Fatalf("%s blocked behind a background merge (> %v)", op.name, bound)
		}
	}
	close(release)
}

// TestBackgroundThrottle parks the flush worker so frozen memtables pile
// up, and verifies the two-stage backpressure engages (slowdown then hard
// stall) and releases once flushing resumes.
func TestBackgroundThrottle(t *testing.T) {
	leakCheck(t)
	fs := vfs.NewMem()
	opts := bgOpts(fs)
	opts.BackgroundWorkers = 1
	opts.SlowdownImmutables = 1
	opts.StallImmutables = 2
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	release := make(chan struct{})
	var once sync.Once
	db.testHookJobStart = func(p *partition, k jobKind) {
		if k == jobFlush {
			<-release
		}
	}

	const n = 600
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := db.Put(key(i), val(i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	// Wait until the writer hits a hard stall, then unpark the worker.
	deadline := time.Now().Add(10 * time.Second)
	for db.stats.Stalls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("writer never stalled")
		}
		time.Sleep(time.Millisecond)
	}
	once.Do(func() { close(release) })
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.Stalls == 0 || m.StallNanos == 0 {
		t.Fatalf("stall counters not recorded: %+v", m)
	}
	if m.SlowdownNanos == 0 {
		t.Fatal("soft slowdown never engaged")
	}
	for i := 0; i < n; i++ {
		if got, err := db.Get(key(i)); err != nil || !bytes.Equal(got, val(i)) {
			t.Fatalf("key %d after throttled load: %q, %v", i, got, err)
		}
	}
}

// TestBackgroundHandoffRace hammers the freeze/flush handoff from multiple
// writers with concurrent readers; its real assertions come from running
// under -race.
func TestBackgroundHandoffRace(t *testing.T) {
	leakCheck(t)
	fs := vfs.NewMem()
	db, err := Open("db", bgOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 4
		perW    = 800
	)
	var writeWG, readWG sync.WaitGroup
	errs := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		w := w
		writeWG.Add(1)
		go func() {
			defer writeWG.Done()
			for i := 0; i < perW; i++ {
				k := w*perW + i
				if err := db.Put(key(k), val(k)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			rng := rand.New(rand.NewSource(int64(42)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.Intn(writers * perW)
				if _, err := db.Get(key(k)); err != nil && err != ErrNotFound {
					errs <- err
					return
				}
				if _, err := db.Scan(key(k), nil, 5); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	// Wait for the writers, then stop the readers.
	writerWG := make(chan struct{})
	go func() {
		writeWG.Wait()
		close(writerWG)
	}()
	timer := time.NewTimer(60 * time.Second)
	defer timer.Stop()
	for done := false; !done; {
		select {
		case err := <-errs:
			close(stop)
			t.Fatal(err)
		case <-writerWG:
			done = true
		case <-timer.C:
			close(stop)
			t.Fatal("stress run timed out")
		}
	}
	close(stop)
	readWG.Wait()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open("db", smallOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for k := 0; k < writers*perW; k++ {
		if got, err := db2.Get(key(k)); err != nil || !bytes.Equal(got, val(k)) {
			t.Fatalf("key %d after stress: %q, %v", k, got, err)
		}
	}
}

// BenchmarkPut is the foreground write path end to end at the perf ledger's
// record shape — 24-byte keys, 1 KiB values, inline executor, memFS, default
// sizes — over a bounded key space, so a long enough run pays for its
// flushes, merges and GCs inside the timed puts. allocs/op is the write
// path's whole per-op allocation count, maintenance included.
func BenchmarkPut(b *testing.B) {
	db, err := Open("db", Options{FS: vfs.NewMem()})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	const keySpace = 1 << 16
	rnd := rand.New(rand.NewSource(1))
	k := []byte("user00000000000000000000")
	v := make([]byte, 1024)
	rnd.Read(v)
	b.ReportAllocs()
	b.SetBytes(int64(len(v)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Caller-owned buffers, reused for every put.
		strconv.AppendInt(k[:len(k)-5], int64(10000+rnd.Intn(keySpace)), 10)
		binary.LittleEndian.PutUint64(v, uint64(i))
		if err := db.Put(k, v); err != nil {
			b.Fatal(err)
		}
	}
}

// TestUnsplittablePartitionSettles holds one value larger than the partition
// limit: the split trigger fires, the split finds one live key and declines,
// and the pool must not re-arm it behind itself — it used to spin on that
// split forever. A second key makes the partition splittable again.
func TestUnsplittablePartitionSettles(t *testing.T) {
	db, err := Open("db", bgOpts(vfs.NewMem()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	big := bytes.Repeat([]byte("x"), 100<<10) // over the 64 KiB limit
	settled := func(what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for db.sched.pendingJobs() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: maintenance never settles (%d splits)", what, db.Metrics().Splits)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := db.Put([]byte("a"), big); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	settled("one key")
	if n := db.Metrics().Splits; n != 0 {
		t.Fatalf("a partition of one key split %d times", n)
	}
	if err := db.Put([]byte("b"), big); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	settled("two keys")
	if n := db.Metrics().Splits; n != 1 {
		t.Fatalf("two keys over the limit split %d times, want once", n)
	}
	for _, k := range []string{"a", "b"} {
		if got, err := db.Get([]byte(k)); err != nil || !bytes.Equal(got, big) {
			t.Fatalf("get %s: %d bytes, %v", k, len(got), err)
		}
	}
}
