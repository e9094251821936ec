package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"unikv/internal/vfs"
)

// smallOpts returns options that trigger flush/merge/split at tiny sizes so
// unit tests exercise every mechanism with hundreds of keys.
func smallOpts(fs vfs.FS) Options {
	return Options{
		FS:                 fs,
		MemtableSize:       2 << 10, // 2 KiB
		UnsortedLimit:      8 << 10,
		ScanMergeLimit:     3,
		PartitionSizeLimit: 64 << 10,
		MaxLogSize:         8 << 10,
		TargetTableSize:    4 << 10,
		HashBuckets:        1 << 12,
	}
}

func openSmall(t *testing.T, fs vfs.FS) *DB {
	t.Helper()
	db, err := Open("db", smallOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("value-%06d-%s", i, bytes.Repeat([]byte("v"), 40))) }

func TestPutGetBasic(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs)
	defer db.Close()

	for i := 0; i < 100; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		got, err := db.Get(key(i))
		if err != nil {
			t.Fatalf("Get(%s): %v", key(i), err)
		}
		if !bytes.Equal(got, val(i)) {
			t.Fatalf("Get(%s) = %q", key(i), got)
		}
	}
	if _, err := db.Get([]byte("missing")); err != ErrNotFound {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestOverwriteAndDelete(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs)
	defer db.Close()

	db.Put([]byte("k"), []byte("v1"))
	db.Put([]byte("k"), []byte("v2"))
	got, err := db.Get([]byte("k"))
	if err != nil || string(got) != "v2" {
		t.Fatalf("%q %v", got, err)
	}
	db.Delete([]byte("k"))
	if _, err := db.Get([]byte("k")); err != ErrNotFound {
		t.Fatalf("want ErrNotFound after delete, got %v", err)
	}
	// Deleting again / deleting missing is fine.
	if err := db.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	// Rewrite after delete.
	db.Put([]byte("k"), []byte("v3"))
	if got, _ := db.Get([]byte("k")); string(got) != "v3" {
		t.Fatalf("%q", got)
	}
}

// TestThroughTiers writes enough data to push keys through every tier
// (memtable → unsorted → sorted with KV separation) and verifies reads at
// each stage.
func TestThroughTiers(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs)
	defer db.Close()

	const n = 600
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	m := db.Metrics()
	if m.Flushes == 0 {
		t.Fatal("no flush happened")
	}
	if m.Merges == 0 {
		t.Fatal("no merge happened")
	}
	if m.ValueLogBytes == 0 {
		t.Fatal("KV separation produced no log data")
	}
	for i := 0; i < n; i++ {
		got, err := db.Get(key(i))
		if err != nil || !bytes.Equal(got, val(i)) {
			t.Fatalf("Get(%s) after tiering: %q %v", key(i), got, err)
		}
	}
}

func TestScanBasic(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs)
	defer db.Close()

	const n = 500
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		db.Put(key(i), val(i))
	}
	kvs, err := db.Scan(key(100), nil, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 50 {
		t.Fatalf("got %d results", len(kvs))
	}
	for j, kv := range kvs {
		if !bytes.Equal(kv.Key, key(100+j)) {
			t.Fatalf("scan[%d] key=%q want %q", j, kv.Key, key(100+j))
		}
		if !bytes.Equal(kv.Value, val(100+j)) {
			t.Fatalf("scan[%d] value mismatch for %q", j, kv.Key)
		}
	}
	// Range-bounded scan.
	kvs, err = db.Scan(key(10), key(20), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 10 {
		t.Fatalf("range scan got %d", len(kvs))
	}
	// Scan past the end.
	kvs, _ = db.Scan(key(n-5), nil, 100)
	if len(kvs) != 5 {
		t.Fatalf("tail scan got %d", len(kvs))
	}
	// Empty range.
	kvs, _ = db.Scan([]byte("zzz"), nil, 10)
	if len(kvs) != 0 {
		t.Fatalf("phantom scan results: %d", len(kvs))
	}
}

func TestScanSeesAllTiersAndTombstones(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs)
	defer db.Close()

	// Push a base version of everything into the sorted tier.
	for i := 0; i < 300; i++ {
		db.Put(key(i), val(i))
	}
	db.CompactAll()
	// Overwrite a band in the memtable/unsorted tier and delete another.
	for i := 100; i < 110; i++ {
		db.Put(key(i), []byte("fresh"))
	}
	for i := 110; i < 120; i++ {
		db.Delete(key(i))
	}
	kvs, err := db.Scan(key(95), key(125), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 95; i < 125; i++ {
		if i >= 110 && i < 120 {
			continue
		}
		want++
	}
	if len(kvs) != want {
		t.Fatalf("got %d want %d", len(kvs), want)
	}
	for _, kv := range kvs {
		i := -1
		fmt.Sscanf(string(kv.Key), "key-%06d", &i)
		if i >= 110 && i < 120 {
			t.Fatalf("deleted key %q visible in scan", kv.Key)
		}
		if i >= 100 && i < 110 && string(kv.Value) != "fresh" {
			t.Fatalf("stale value for %q: %q", kv.Key, kv.Value)
		}
	}
}

func TestUpdatesAcrossMerge(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs)
	defer db.Close()

	// Base data through the tiers.
	for i := 0; i < 200; i++ {
		db.Put(key(i), val(i))
	}
	db.CompactAll()
	// Zipf-ish updates over a hot band, repeatedly merged.
	rnd := rand.New(rand.NewSource(42))
	latest := map[int]int{}
	for round := 0; round < 5; round++ {
		for j := 0; j < 200; j++ {
			i := rnd.Intn(40)
			latest[i] = round*1000 + j
			db.Put(key(i), []byte(fmt.Sprintf("upd-%d", latest[i])))
		}
		db.CompactAll()
	}
	for i, v := range latest {
		got, err := db.Get(key(i))
		if err != nil || string(got) != fmt.Sprintf("upd-%d", v) {
			t.Fatalf("key %d: %q %v", i, got, err)
		}
	}
	// Cold keys untouched.
	for i := 50; i < 60; i++ {
		got, err := db.Get(key(i))
		if err != nil || !bytes.Equal(got, val(i)) {
			t.Fatalf("cold key %d: %q %v", i, got, err)
		}
	}
}

func TestSplitHappens(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs)
	defer db.Close()

	const n = 2000
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	m := db.Metrics()
	if m.Splits == 0 {
		t.Fatalf("no split with %d keys and 64 KiB partition limit (metrics %+v)", n, m)
	}
	if m.Partitions < 2 {
		t.Fatalf("partitions=%d", m.Partitions)
	}
	// Everything still readable.
	for i := 0; i < n; i++ {
		got, err := db.Get(key(i))
		if err != nil || !bytes.Equal(got, val(i)) {
			t.Fatalf("key %d after split: %v", i, err)
		}
	}
	// Scans cross partition boundaries seamlessly.
	kvs, err := db.Scan(key(0), nil, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != n {
		t.Fatalf("full scan got %d of %d", len(kvs), n)
	}
	for i, kv := range kvs {
		if !bytes.Equal(kv.Key, key(i)) {
			t.Fatalf("scan order broken at %d: %q", i, kv.Key)
		}
	}
}

func TestGCReclaims(t *testing.T) {
	fs := vfs.NewMem()
	opts := smallOpts(fs)
	opts.GCRatio = 0.2
	opts.exp.DisablePartitioning = true
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Heavy overwrites of a small key set force log garbage.
	for round := 0; round < 30; round++ {
		for i := 0; i < 100; i++ {
			db.Put(key(i), val(i*31+round))
		}
	}
	db.CompactAll()
	m := db.Metrics()
	if m.GCs == 0 {
		t.Fatalf("no GC ran: %+v", m)
	}
	// All keys still return the last value written.
	for i := 0; i < 100; i++ {
		got, err := db.Get(key(i))
		if err != nil || !bytes.Equal(got, val(i*31+29)) {
			t.Fatalf("key %d after GC: %q %v", i, got, err)
		}
	}
	// Log space is bounded: live data is ~100 values.
	if m.ValueLogBytes > 20*100*int64(len(val(0))) {
		t.Fatalf("value logs not reclaimed: %d bytes", m.ValueLogBytes)
	}
}

func TestReopenPersistsEverything(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs)
	const n = 1500
	for i := 0; i < n; i++ {
		db.Put(key(i), val(i))
	}
	for i := 0; i < 50; i++ {
		db.Delete(key(i))
	}
	splits := db.Metrics().Splits
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open("db", smallOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if splits > 0 && db2.Metrics().Partitions < 2 {
		t.Fatal("partitions lost at reopen")
	}
	for i := 0; i < 50; i++ {
		if _, err := db2.Get(key(i)); err != ErrNotFound {
			t.Fatalf("deleted key %d resurrected: %v", i, err)
		}
	}
	for i := 50; i < n; i++ {
		got, err := db2.Get(key(i))
		if err != nil || !bytes.Equal(got, val(i)) {
			t.Fatalf("key %d lost at reopen: %v", i, err)
		}
	}
	kvs, err := db2.Scan(key(40), key(60), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 10 {
		t.Fatalf("post-reopen scan got %d want 10", len(kvs))
	}
}

func TestReopenUnflushedWAL(t *testing.T) {
	fs := vfs.NewMem()
	opts := smallOpts(fs)
	opts.MemtableSize = 1 << 20 // nothing flushes
	opts.SyncWrites = true
	db, _ := Open("db", opts)
	for i := 0; i < 50; i++ {
		db.Put(key(i), val(i))
	}
	// Simulate crash: do NOT Close (Close would flush); drop the handle.
	// The WAL was synced per write, so everything must recover. The dead
	// process's directory lock dies with it.
	fs.(vfs.LockDropper).DropLocks()
	db2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 50; i++ {
		got, err := db2.Get(key(i))
		if err != nil || !bytes.Equal(got, val(i)) {
			t.Fatalf("key %d lost from WAL: %v", i, err)
		}
	}
}

func TestEmptyAndEdgeKeys(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs)
	defer db.Close()

	if err := db.Put(nil, []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
	// Empty value is fine.
	if err := db.Put([]byte("k"), nil); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get([]byte("k"))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty value: %q %v", got, err)
	}
	// Binary keys.
	bk := []byte{0x00, 0xff, 0x10, 0x00}
	db.Put(bk, []byte("bin"))
	if got, _ := db.Get(bk); string(got) != "bin" {
		t.Fatalf("%q", got)
	}
}

func TestClosedOps(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs)
	db.Close()
	if err := db.Put([]byte("k"), []byte("v")); err != ErrClosed {
		t.Fatalf("Put: %v", err)
	}
	if _, err := db.Get([]byte("k")); err != ErrClosed {
		t.Fatalf("Get: %v", err)
	}
	if _, err := db.Scan([]byte("a"), nil, 1); err != ErrClosed {
		t.Fatalf("Scan: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs)
	defer db.Close()

	for i := 0; i < 300; i++ {
		db.Put(key(i), val(i))
	}
	done := make(chan error, 9)
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			rnd := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					done <- nil
					return
				default:
				}
				i := rnd.Intn(300)
				got, err := db.Get(key(i))
				if err != nil {
					done <- fmt.Errorf("get %d: %v", i, err)
					return
				}
				if len(got) == 0 {
					done <- fmt.Errorf("empty value for %d", i)
					return
				}
			}
		}(g)
	}
	go func() {
		for i := 300; i < 1200; i++ {
			if err := db.Put(key(i%600), val(i)); err != nil {
				done <- err
				return
			}
		}
		close(stop)
		done <- nil
	}()
	for i := 0; i < 9; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestScanRangeAcrossPartitions(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs)
	defer db.Close()
	const n = 3000
	for i := 0; i < n; i++ {
		db.Put(key(i), val(i))
	}
	if db.Metrics().Partitions < 2 {
		t.Skip("no split")
	}
	// Find a partition boundary and scan a window straddling it.
	parts := db.partitions()
	boundary := parts[1].lower
	var lo, hi int
	fmt.Sscanf(string(boundary), "key-%06d", &lo)
	lo -= 20
	hi = lo + 40
	kvs, err := db.Scan(key(lo), key(hi), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 40 {
		t.Fatalf("boundary scan got %d want 40", len(kvs))
	}
	for j, kv := range kvs {
		if !bytes.Equal(kv.Key, key(lo+j)) {
			t.Fatalf("at %d: %q", j, kv.Key)
		}
	}
	// Limit honored across the boundary.
	kvs, _ = db.Scan(key(lo), nil, 25)
	if len(kvs) != 25 {
		t.Fatalf("limited boundary scan got %d", len(kvs))
	}
}

func TestFlushAndCompactIdempotent(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs)
	defer db.Close()
	for i := 0; i < 100; i++ {
		db.Put(key(i), val(i))
	}
	for round := 0; round < 3; round++ {
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := db.CompactAll(); err != nil {
			t.Fatal(err)
		}
	}
	m := db.Metrics()
	if m.UnsortedTables != 0 {
		t.Fatalf("unsorted tables after compact: %d", m.UnsortedTables)
	}
	for i := 0; i < 100; i++ {
		if _, err := db.Get(key(i)); err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
	}
}

func TestLargeValuesThroughTiers(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs)
	defer db.Close()
	// Values larger than the memtable threshold and the block size.
	big := bytes.Repeat([]byte("B"), 64<<10)
	for i := 0; i < 10; i++ {
		if err := db.Put(key(i), big); err != nil {
			t.Fatal(err)
		}
	}
	db.CompactAll()
	for i := 0; i < 10; i++ {
		got, err := db.Get(key(i))
		if err != nil || !bytes.Equal(got, big) {
			t.Fatalf("big value %d: len=%d err=%v", i, len(got), err)
		}
	}
	kvs, err := db.Scan(key(0), nil, 10)
	if err != nil || len(kvs) != 10 {
		t.Fatalf("big scan: %d %v", len(kvs), err)
	}
}
