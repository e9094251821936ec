package unikv

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"unikv/internal/vfs"
)

func openMem(t *testing.T) *DB {
	t.Helper()
	db, err := Open("db", &Options{
		FS:                 vfs.NewMem(),
		MemtableSize:       4 << 10,
		UnsortedLimit:      16 << 10,
		PartitionSizeLimit: 128 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPublicAPIRoundTrip(t *testing.T) {
	db := openMem(t)
	defer db.Close()

	for i := 0; i < 500; i++ {
		k := []byte(fmt.Sprintf("user:%04d", i))
		v := []byte(fmt.Sprintf("profile-%d", i))
		if err := db.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	got, err := db.Get([]byte("user:0042"))
	if err != nil || string(got) != "profile-42" {
		t.Fatalf("%q %v", got, err)
	}
	if _, err := db.Get([]byte("user:9999")); err != ErrNotFound {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if err := db.Delete([]byte("user:0042")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("user:0042")); err != ErrNotFound {
		t.Fatalf("after delete: %v", err)
	}
	kvs, err := db.Scan([]byte("user:0100"), []byte("user:0110"), 0)
	if err != nil || len(kvs) != 10 {
		t.Fatalf("scan: %d %v", len(kvs), err)
	}
	for i, kv := range kvs {
		want := fmt.Sprintf("user:%04d", 100+i)
		if string(kv.Key) != want {
			t.Fatalf("scan[%d]=%q want %q", i, kv.Key, want)
		}
	}
}

func TestPublicNilOptionsOnDisk(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got, err := db2.Get([]byte("k"))
	if err != nil || !bytes.Equal(got, []byte("v")) {
		t.Fatalf("%q %v", got, err)
	}
}

func TestPublicFlushCompactMetrics(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	for i := 0; i < 2000; i++ {
		db.Put([]byte(fmt.Sprintf("k%05d", i)), bytes.Repeat([]byte("x"), 64))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.Flushes == 0 || m.Merges == 0 || m.Partitions == 0 {
		t.Fatalf("metrics look empty: %+v", m)
	}
	if m.UnsortedTables != 0 {
		t.Fatalf("Compact left %d unsorted tables", m.UnsortedTables)
	}
	// Everything readable post-compaction.
	for _, i := range []int{0, 500, 1999} {
		if _, err := db.Get([]byte(fmt.Sprintf("k%05d", i))); err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
	}
}

func TestPublicClosed(t *testing.T) {
	db := openMem(t)
	db.Close()
	if err := db.Put([]byte("k"), []byte("v")); err != ErrClosed {
		t.Fatalf("%v", err)
	}
}

func TestPublicBatch(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	b := NewBatch()
	b.Put([]byte("a"), []byte("1"))
	b.Put([]byte("b"), []byte("2"))
	b.Delete([]byte("a"))
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("a")); err != ErrNotFound {
		t.Fatalf("%v", err)
	}
	if v, err := db.Get([]byte("b")); err != nil || string(v) != "2" {
		t.Fatalf("%q %v", v, err)
	}
}

func TestPublicValueThreshold(t *testing.T) {
	db, err := Open("db2", &Options{
		FS:             vfs.NewMem(),
		MemtableSize:   4 << 10,
		UnsortedLimit:  16 << 10,
		ValueThreshold: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 500; i++ {
		v := []byte("small")
		if i%3 == 0 {
			v = bytes.Repeat([]byte("big"), 50)
		}
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), v); err != nil {
			t.Fatal(err)
		}
	}
	db.Compact()
	for i := 0; i < 500; i++ {
		v, err := db.Get([]byte(fmt.Sprintf("k%04d", i)))
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		if i%3 == 0 && len(v) != 150 {
			t.Fatalf("key %d: len=%d", i, len(v))
		}
		if i%3 != 0 && string(v) != "small" {
			t.Fatalf("key %d: %q", i, v)
		}
	}
}

// TestOpenLockedDir is the regression test for the PR 3 observed data loss:
// before the LOCK file existed, a second Open of a live directory rotated
// CURRENT to its own manifest generation and its orphan sweep deleted the
// first process's files. Now the second Open must fail with ErrDBLocked
// while the first handle keeps serving, and the directory must remain
// openable — with all data — once the first handle closes.
func TestOpenLockedDir(t *testing.T) {
	cases := []struct {
		name string
		opts func(t *testing.T) (string, *Options)
	}{
		{"mem", func(t *testing.T) (string, *Options) {
			return "db", &Options{FS: vfs.NewMem()}
		}},
		// Default FS: the real flock(2) path.
		{"os", func(t *testing.T) (string, *Options) {
			return t.TempDir(), nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, opts := tc.opts(t)
			db, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}

			if _, err := Open(dir, opts); !errors.Is(err, ErrDBLocked) {
				t.Fatalf("second Open: want ErrDBLocked, got %v", err)
			}

			// The first handle is unharmed: reads and writes still work.
			if got, err := db.Get([]byte("k0100")); err != nil || string(got) != "v100" {
				t.Fatalf("first handle after contended open: %q %v", got, err)
			}
			if err := db.Put([]byte("post-contention"), []byte("ok")); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			// The lock died with the handle; every key survived.
			db2, err := Open(dir, opts)
			if err != nil {
				t.Fatalf("reopen after close: %v", err)
			}
			defer db2.Close()
			for i := 0; i < 200; i++ {
				got, err := db2.Get([]byte(fmt.Sprintf("k%04d", i)))
				if err != nil || string(got) != fmt.Sprintf("v%d", i) {
					t.Fatalf("key %d lost across contended open: %q %v", i, got, err)
				}
			}
			if got, _ := db2.Get([]byte("post-contention")); string(got) != "ok" {
				t.Fatal("post-contention write lost")
			}
		})
	}
}

// TestPublicOptionFields pins the user's option set: a field added to (or
// dropped from) Options changes the public API, and README's "Options that
// matter" table has one row per field. Ablation and test knobs live in
// core.Experiment instead.
func TestPublicOptionFields(t *testing.T) {
	want := []string{
		"MemtableSize", "UnsortedLimit", "ScanMergeLimit", "PartitionSizeLimit",
		"GCRatio", "MaxLogSize", "TargetTableSize", "HashBuckets", "ValueThreshold",
		"SyncWrites", "BackgroundWorkers", "SlowdownImmutables", "StallImmutables",
		"ScrubInterval", "ScrubBytesPerSec", "CacheBytes", "HotRingEntries", "FS",
	}
	var got []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Options{})) {
		if f.IsExported() {
			got = append(got, f.Name)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Options fields:\n got %v\nwant %v", got, want)
	}
}
