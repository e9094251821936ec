package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"unikv/internal/vfs"
)

// dumpSnap returns the snapshot's full contents in key order.
func dumpSnap(t *testing.T, s *Snapshot) []KV {
	t.Helper()
	kvs, err := s.Scan(nil, []byte("\xff\xff\xff\xff"), 0)
	if err != nil {
		t.Fatalf("snapshot dump: %v", err)
	}
	return kvs
}

// expectDump checks a snapshot dump against a model map.
func expectDump(t *testing.T, got []KV, model map[string]string) {
	t.Helper()
	if len(got) != len(model) {
		t.Fatalf("snapshot dump has %d keys, model has %d", len(got), len(model))
	}
	for _, kv := range got {
		if model[string(kv.Key)] != string(kv.Value) {
			t.Fatalf("snapshot %q = %q, model %q", kv.Key, kv.Value, model[string(kv.Key)])
		}
	}
}

// sameKVs asserts two dumps are byte-identical.
func sameKVs(t *testing.T, what string, a, b []KV) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: lengths diverge: %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			t.Fatalf("%s: [%d] diverges: %q=%q vs %q=%q",
				what, i, a[i].Key, a[i].Value, b[i].Key, b[i].Value)
		}
	}
}

// TestSnapshotPinsPointInTime pins the basic MVCC semantics: a snapshot
// observes exactly the writes sequenced at or before NewSnapshot — later
// overwrites, deletes, and inserts are invisible — while the live handle
// keeps seeing the latest state.
func TestSnapshotPinsPointInTime(t *testing.T) {
	db := openSmall(t, vfs.NewMem())
	defer db.Close()

	for i := 0; i < 200; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete(key(5)); err != nil {
		t.Fatal(err)
	}

	s, err := db.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if m := db.Metrics(); m.SnapshotsOpen != 1 || m.SnapshotMinSeq != s.Seq() {
		t.Fatalf("gauges: open=%d minseq=%d, want 1/%d", m.SnapshotsOpen, m.SnapshotMinSeq, s.Seq())
	}

	// Mutate heavily after the pin: overwrites, a delete, a fresh key.
	for i := 0; i < 200; i++ {
		if err := db.Put(key(i), []byte(fmt.Sprintf("overwritten-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete(key(7)); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("zzz-post-pin"), []byte("nope")); err != nil {
		t.Fatal(err)
	}

	if _, err := s.Get(key(5)); err != ErrNotFound {
		t.Fatalf("pre-pin delete must stay deleted in snapshot: %v", err)
	}
	if got, err := s.Get(key(7)); err != nil || !bytes.Equal(got, val(7)) {
		t.Fatalf("post-pin delete leaked into snapshot: %q, %v", got, err)
	}
	if got, err := s.Get(key(3)); err != nil || !bytes.Equal(got, val(3)) {
		t.Fatalf("post-pin overwrite leaked into snapshot: %q, %v", got, err)
	}
	if _, err := s.Get([]byte("zzz-post-pin")); err != ErrNotFound {
		t.Fatalf("post-pin insert visible in snapshot: %v", err)
	}
	if v, err := db.Get(key(3)); err != nil || string(v) != "overwritten-3" {
		t.Fatalf("live read stale: %q, %v", v, err)
	}

	kvs := dumpSnap(t, s)
	if len(kvs) != 199 { // 200 keys minus the pre-pin delete; no post-pin insert
		t.Fatalf("snapshot scan sees %d keys, want 199", len(kvs))
	}
	for _, kv := range kvs {
		if strings.HasPrefix(string(kv.Value), "overwritten") || string(kv.Key) == "zzz-post-pin" {
			t.Fatalf("snapshot scan leaked post-pin state: %q=%q", kv.Key, kv.Value)
		}
	}
}

// TestSnapshotStormConsistency is the acceptance storm: a snapshot taken
// before a 10k-op write/delete storm — with background workers flushing,
// merging, splitting, and GCing throughout — must return byte-identical
// Get and Scan results after the storm.
func TestSnapshotStormConsistency(t *testing.T) {
	leakCheck(t)
	opts := smallOpts(vfs.NewMem())
	opts.PartitionSizeLimit = 16 << 10 // low enough that the storm splits
	opts.GCRatio = 0.05                // and GCs
	opts.BackgroundWorkers = 2
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	watchGauges(t, db, false)

	rnd := rand.New(rand.NewSource(11))
	k := func(i int) string { return fmt.Sprintf("key-%03d", i) }
	model := map[string]string{}
	for i := 0; i < 300; i++ {
		kk := k(i % 200)
		vv := fmt.Sprintf("pre-%d-%s", i, strings.Repeat("x", 100+rnd.Intn(100)))
		if err := db.Put([]byte(kk), []byte(vv)); err != nil {
			t.Fatal(err)
		}
		model[kk] = vv
	}
	for i := 0; i < 40; i++ {
		kk := k(rnd.Intn(200))
		if err := db.Delete([]byte(kk)); err != nil {
			t.Fatal(err)
		}
		delete(model, kk)
	}

	s, err := db.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := dumpSnap(t, s)
	expectDump(t, before, model) // correct at pin time, not merely stable

	for op := 0; op < 10000; op++ {
		switch rnd.Intn(16) {
		case 0:
			if err := db.Delete([]byte(k(rnd.Intn(200)))); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		default:
			vv := fmt.Sprintf("storm-%d-%s", op, strings.Repeat("y", 80+rnd.Intn(120)))
			if err := db.Put([]byte(k(rnd.Intn(200))), []byte(vv)); err != nil {
				t.Fatal(err)
			}
		}
		if op%2500 == 2499 {
			if err := db.CompactAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}

	m := db.Metrics()
	if m.Flushes == 0 || m.Merges == 0 || m.Splits == 0 || m.GCs == 0 {
		t.Fatalf("storm did not storm: flushes=%d merges=%d splits=%d gcs=%d",
			m.Flushes, m.Merges, m.Splits, m.GCs)
	}

	after := dumpSnap(t, s)
	sameKVs(t, "snapshot scan before vs after storm", before, after)
	for kk, vv := range model {
		got, err := s.Get([]byte(kk))
		if err != nil || string(got) != vv {
			t.Fatalf("snapshot Get(%s) after storm: %q, %v (want %q)", kk, got, err, vv)
		}
	}
	for i := 0; i < 200; i++ {
		if _, ok := model[k(i)]; ok {
			continue
		}
		if _, err := s.Get([]byte(k(i))); err != ErrNotFound {
			t.Fatalf("snapshot Get(%s): deleted-at-pin key resurfaced: %v", k(i), err)
		}
	}
}

// TestSnapshotFencesValueLogGC drives value-log GC hard while a snapshot
// holds pointers into the collected logs: the log refcount must keep every
// pinned segment alive, so the snapshot's pointer dereferences never fail
// and its values never change.
func TestSnapshotFencesValueLogGC(t *testing.T) {
	opts := smallOpts(vfs.NewMem())
	opts.GCRatio = 0.05
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	model := map[string]string{}
	for i := 0; i < 150; i++ {
		kk := fmt.Sprintf("key-%03d", i)
		vv := fmt.Sprintf("v0-%d-%s", i, strings.Repeat("z", 200))
		if err := db.Put([]byte(kk), []byte(vv)); err != nil {
			t.Fatal(err)
		}
		model[kk] = vv
	}
	if err := db.CompactAll(); err != nil { // values land in value logs
		t.Fatal(err)
	}

	s, err := db.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref := dumpSnap(t, s)
	expectDump(t, ref, model)

	// Churn: every round overwrites every key and compacts, making the
	// previous round's log bytes garbage; GC rewrites live values and wants
	// to drop the old segments — exactly the ones the snapshot still needs.
	for round := 1; round <= 6; round++ {
		for i := 0; i < 150; i++ {
			kk := fmt.Sprintf("key-%03d", i)
			vv := fmt.Sprintf("v%d-%d-%s", round, i, strings.Repeat("w", 200))
			if err := db.Put([]byte(kk), []byte(vv)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.CompactAll(); err != nil {
			t.Fatal(err)
		}
	}
	if m := db.Metrics(); m.GCs == 0 {
		t.Fatalf("churn never triggered GC (garbage accounting broken?): %+v", m)
	}

	after := dumpSnap(t, s)
	sameKVs(t, "snapshot across GC churn", ref, after)

	// Releasing the snapshot lets the next GC actually reclaim.
	logsPinned := len(db.vl.LogNums())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if logsAfter := len(db.vl.LogNums()); logsAfter > logsPinned {
		t.Fatalf("closing the snapshot grew the log set: %d -> %d", logsPinned, logsAfter)
	}
	if _, err := s.Get([]byte("key-000")); err != ErrSnapshotClosed {
		t.Fatalf("closed snapshot Get: %v, want ErrSnapshotClosed", err)
	}
}

// TestCloseRefusesWithOpenSnapshot is the S3 regression: DB.Close racing
// live snapshot reads must not unmap pinned resources — it returns
// ErrSnapshotOpen and the snapshot keeps reading — and succeeds once the
// last handle closes. Run under -race this also proves the closed
// transition cannot interleave with NewSnapshot or pinned reads.
func TestCloseRefusesWithOpenSnapshot(t *testing.T) {
	db := openSmall(t, vfs.NewMem())
	for i := 0; i < 300; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := db.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	if err := db.Close(); err != ErrSnapshotOpen {
		t.Fatalf("Close with open snapshot: %v, want ErrSnapshotOpen", err)
	}

	// Readers hammer the snapshot while Close keeps being refused.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				n := rnd.Intn(300)
				if got, err := s.Get(key(n)); err != nil || !bytes.Equal(got, val(n)) {
					t.Errorf("snapshot Get during Close attempts: %q, %v", got, err)
					return
				}
				if _, err := s.Scan(key(n), nil, 5); err != nil {
					t.Errorf("snapshot Scan during Close attempts: %v", err)
					return
				}
			}
		}(int64(g))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := db.Close(); err != ErrSnapshotOpen {
				t.Errorf("concurrent Close: %v, want ErrSnapshotOpen", err)
				return
			}
		}
	}()
	wg.Wait()

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close after snapshot released: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close not idempotent: %v", err)
	}
	if _, err := db.NewSnapshot(); err != ErrClosed {
		t.Fatalf("NewSnapshot on closed DB: %v, want ErrClosed", err)
	}
}

// TestBackupSurvivesCrashAndVerifies proves the backup is a durable,
// self-contained point-in-time checkpoint: writes land (some left
// unflushed so the WAL cut is exercised), Backup runs, MORE writes land,
// then the machine "loses power". The backup directory must reopen clean,
// pass VerifyIntegrity, and contain exactly the backup-time state.
func TestBackupSurvivesCrashAndVerifies(t *testing.T) {
	fs := vfs.NewMem()
	opts := smallOpts(fs)
	opts.PartitionSizeLimit = 16 << 10
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}

	rnd := rand.New(rand.NewSource(23))
	model := map[string]string{}
	for i := 0; i < 600; i++ {
		kk := fmt.Sprintf("key-%03d", rnd.Intn(250))
		vv := fmt.Sprintf("val-%d-%s", i, strings.Repeat("b", 100+rnd.Intn(100)))
		if err := db.Put([]byte(kk), []byte(vv)); err != nil {
			t.Fatal(err)
		}
		model[kk] = vv
	}
	for i := 0; i < 40; i++ {
		kk := fmt.Sprintf("key-%03d", rnd.Intn(250))
		if err := db.Delete([]byte(kk)); err != nil {
			t.Fatal(err)
		}
		delete(model, kk)
	}
	// A tail of writes deliberately left in the memtable: the backup's WAL
	// cut must carry them.
	for i := 0; i < 20; i++ {
		kk := fmt.Sprintf("tail-%02d", i)
		vv := fmt.Sprintf("tailval-%d", i)
		if err := db.Put([]byte(kk), []byte(vv)); err != nil {
			t.Fatal(err)
		}
		model[kk] = vv
	}

	if err := db.Backup("bak"); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("post-backup"), []byte("must-not-appear")); err != nil {
		t.Fatal(err)
	}

	// Power loss: only synced state survives, and the dying process's
	// directory locks die with it.
	fs.(vfs.Crasher).Crash()

	bdb, err := Open("bak", smallOpts(fs))
	if err != nil {
		t.Fatalf("backup did not reopen after crash: %v", err)
	}
	defer bdb.Close()
	if err := bdb.VerifyIntegrity(); err != nil {
		t.Fatalf("backup failed integrity verification: %v", err)
	}
	kvs, err := bdb.Scan(nil, []byte("\xff\xff"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != len(model) {
		t.Fatalf("restored backup has %d keys, want %d", len(kvs), len(model))
	}
	for _, kv := range kvs {
		if model[string(kv.Key)] != string(kv.Value) {
			t.Fatalf("restored %q = %q, want %q", kv.Key, kv.Value, model[string(kv.Key)])
		}
	}
	if _, err := bdb.Get([]byte("post-backup")); err != ErrNotFound {
		t.Fatalf("post-backup write leaked into the checkpoint: %v", err)
	}
}

// TestBackupConcurrentWithStorm backs up while a write storm runs: the
// checkpoint must capture a consistent point even though flushes, merges,
// and splits retire the files it is copying mid-flight.
func TestBackupConcurrentWithStorm(t *testing.T) {
	leakCheck(t)
	fs := vfs.NewMem()
	opts := smallOpts(fs)
	opts.PartitionSizeLimit = 16 << 10
	opts.BackgroundWorkers = 2
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for i := 0; i < 400; i++ {
		kk := fmt.Sprintf("key-%03d", i%200)
		vv := fmt.Sprintf("val-%d-%s", i, strings.Repeat("c", 120))
		if err := db.Put([]byte(kk), []byte(vv)); err != nil {
			t.Fatal(err)
		}
	}

	// The snapshot defines the checkpoint; the storm runs while BackupAt
	// copies it out.
	s, err := db.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := dumpSnap(t, s)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rnd := rand.New(rand.NewSource(31))
		for op := 0; ; op++ {
			select {
			case <-stop:
				return
			default:
			}
			kk := fmt.Sprintf("key-%03d", rnd.Intn(200))
			vv := fmt.Sprintf("storm-%d-%s", op, strings.Repeat("d", 150))
			if err := db.Put([]byte(kk), []byte(vv)); err != nil {
				t.Errorf("storm Put: %v", err)
				return
			}
			if op%500 == 499 {
				if err := db.Flush(); err != nil {
					t.Errorf("storm Flush: %v", err)
					return
				}
			}
		}
	}()
	backupErr := db.BackupAt(s, "bak")
	close(stop)
	wg.Wait()
	if backupErr != nil {
		t.Fatal(backupErr)
	}

	bdb, err := Open("bak", smallOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer bdb.Close()
	if err := bdb.VerifyIntegrity(); err != nil {
		t.Fatalf("backup integrity: %v", err)
	}
	got, err := bdb.Scan(nil, []byte("\xff\xff"), 0)
	if err != nil {
		t.Fatal(err)
	}
	sameKVs(t, "restored backup vs pinned snapshot", want, got)
}

// TestBackupHardlinkOS runs the backup over the real file system, where
// table files publish via hard links instead of byte copies.
func TestBackupHardlinkOS(t *testing.T) {
	root := t.TempDir()
	opts := smallOpts(vfs.NewOS())
	db, err := Open(filepath.Join(root, "db"), opts)
	if err != nil {
		t.Fatal(err)
	}
	model := map[string]string{}
	for i := 0; i < 400; i++ {
		kk := fmt.Sprintf("key-%03d", i%150)
		vv := fmt.Sprintf("val-%d-%s", i, strings.Repeat("e", 120))
		if err := db.Put([]byte(kk), []byte(vv)); err != nil {
			t.Fatal(err)
		}
		model[kk] = vv
	}
	bak := filepath.Join(root, "bak")
	if err := db.Backup(bak); err != nil {
		t.Fatal(err)
	}
	// Post-backup churn retires the hard-linked source files.
	for i := 0; i < 200; i++ {
		kk := fmt.Sprintf("key-%03d", i%150)
		if err := db.Put([]byte(kk), []byte("post")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	bdb, err := Open(bak, smallOpts(vfs.NewOS()))
	if err != nil {
		t.Fatal(err)
	}
	defer bdb.Close()
	if err := bdb.VerifyIntegrity(); err != nil {
		t.Fatalf("hardlinked backup integrity: %v", err)
	}
	keys := make([]string, 0, len(model))
	for kk := range model {
		keys = append(keys, kk)
	}
	sort.Strings(keys)
	for _, kk := range keys {
		got, err := bdb.Get([]byte(kk))
		if err != nil || string(got) != model[kk] {
			t.Fatalf("restored Get(%s) = %q, %v (want %q)", kk, got, err, model[kk])
		}
	}
}
