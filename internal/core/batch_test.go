package core

import (
	"bytes"
	"fmt"
	"testing"

	"unikv/internal/record"
	"unikv/internal/vfs"
	"unikv/internal/wal"
)

func TestBatchBasic(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs)
	defer db.Close()

	b := NewBatch()
	for i := 0; i < 50; i++ {
		b.Put(key(i), val(i))
	}
	b.Delete(key(10))
	if b.Len() != 51 {
		t.Fatalf("Len=%d", b.Len())
	}
	if err := db.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		got, err := db.Get(key(i))
		if i == 10 {
			if err != ErrNotFound {
				t.Fatalf("key 10 should be deleted (delete queued after put): %v", err)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, val(i)) {
			t.Fatalf("key %d: %v", i, err)
		}
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset did not empty the batch")
	}
}

func TestBatchOrderWithinKey(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs)
	defer db.Close()

	b := NewBatch()
	b.Put([]byte("k"), []byte("v1"))
	b.Delete([]byte("k"))
	b.Put([]byte("k"), []byte("v3"))
	if err := db.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get([]byte("k"))
	if err != nil || string(got) != "v3" {
		t.Fatalf("%q %v", got, err)
	}
}

func TestBatchAcrossPartitions(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs)
	defer db.Close()

	// Force splits first.
	for i := 0; i < 2000; i++ {
		db.Put(key(i), val(i))
	}
	if db.Metrics().Partitions < 2 {
		t.Skip("no split at this scale")
	}
	// A batch spanning the whole key space.
	b := NewBatch()
	for i := 0; i < 2000; i += 50 {
		b.Put(key(i), []byte(fmt.Sprintf("batched-%d", i)))
	}
	if err := db.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i += 50 {
		got, err := db.Get(key(i))
		if err != nil || string(got) != fmt.Sprintf("batched-%d", i) {
			t.Fatalf("key %d: %q %v", i, got, err)
		}
	}
}

// TestBatchBorrowed: a reused batch whose operations borrow the caller's
// buffers, merged into a group batch the way the server's commit leader
// does. Whether a batch stays inside one partition (applied where it
// lies) or straddles several (sorted into per-partition slices), order
// within a key holds, and once Apply has returned the engine keeps
// nothing of the borrowed bytes.
func TestBatchBorrowed(t *testing.T) {
	db := openSmall(t, vfs.NewMem())
	defer db.Close()
	for i := 0; i < 2000; i++ {
		db.Put(key(i), val(i))
	}
	if db.Metrics().Partitions < 2 {
		t.Skip("no split at this scale")
	}
	b, group := NewBatch(), NewBatch()
	for round := 0; round < 3; round++ {
		for _, stride := range []int{1, 50} { // neighbours: one partition; 50 apart: all of them
			b.Reset()
			group.Reset()
			var bufs [][]byte
			borrow := func(s string) []byte {
				bufs = append(bufs, []byte(s))
				return bufs[len(bufs)-1]
			}
			for i := 0; i < 30; i++ {
				k := string(key(i * stride))
				b.PutBorrowed(borrow(k), borrow("stale"))
				if i%7 == 3 {
					b.DeleteBorrowed(borrow(k))
				} else {
					b.PutBorrowed(borrow(k), borrow(fmt.Sprintf("r%d-s%d-%d", round, stride, i)))
				}
			}
			group.Append(b)
			if err := db.ApplyBatch(group); err != nil {
				t.Fatal(err)
			}
			for _, buf := range bufs {
				for j := range buf {
					buf[j] = 0xee
				}
			}
			for i := 0; i < 30; i++ {
				got, err := db.Get(key(i * stride))
				if i%7 == 3 {
					if err != ErrNotFound {
						t.Fatalf("round %d stride %d key %d: %q, %v; want deleted", round, stride, i, got, err)
					}
				} else if want := fmt.Sprintf("r%d-s%d-%d", round, stride, i); err != nil || string(got) != want {
					t.Fatalf("round %d stride %d key %d: %q, %v; want %q", round, stride, i, got, err, want)
				}
			}
		}
	}
}

func TestBatchDurableAfterCrash(t *testing.T) {
	inner := vfs.NewMem()
	opts := smallOpts(inner)
	opts.MemtableSize = 1 << 20 // keep everything in the WAL
	opts.SyncWrites = true
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch()
	for i := 0; i < 30; i++ {
		b.Put(key(i), val(i))
	}
	if err := db.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	// Crash (no Close): the dead process's directory lock dies with it.
	inner.(vfs.LockDropper).DropLocks()
	db2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 30; i++ {
		got, err := db2.Get(key(i))
		if err != nil || !bytes.Equal(got, val(i)) {
			t.Fatalf("batched key %d lost: %v", i, err)
		}
	}
}

func TestBatchValidation(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs)
	defer db.Close()
	b := NewBatch()
	b.Put(nil, []byte("v"))
	if err := db.ApplyBatch(b); err != ErrKeyTooLarge {
		t.Fatalf("%v", err)
	}
	db.Close()
	b2 := NewBatch()
	b2.Put([]byte("k"), []byte("v"))
	if err := db.ApplyBatch(b2); err != ErrClosed {
		t.Fatalf("%v", err)
	}
}

func TestBatchEmpty(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs)
	defer db.Close()
	if err := db.ApplyBatch(NewBatch()); err != nil {
		t.Fatal(err)
	}
}

func TestSelectiveKVSeparation(t *testing.T) {
	fs := vfs.NewMem()
	opts := smallOpts(fs)
	opts.ValueThreshold = 100
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	small := []byte("tiny")                 // stays inline
	large := bytes.Repeat([]byte("L"), 300) // separated
	for i := 0; i < 300; i++ {
		if i%2 == 0 {
			db.Put(key(i), small)
		} else {
			db.Put(key(i), large)
		}
	}
	db.CompactAll()
	// Both classes read back fine.
	for i := 0; i < 300; i++ {
		got, err := db.Get(key(i))
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		want := small
		if i%2 == 1 {
			want = large
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("key %d: wrong class returned", i)
		}
	}
	// Check the layout: inspect sorted-store records directly.
	v := db.partitions()[0].acquire()
	inline, ptrs := 0, 0
	it := v.srt.NewIterator()
	for ok := it.First(); ok; ok = it.Next() {
		switch it.Record().Kind {
		case record.KindSet:
			inline++
		case record.KindSetPtr:
			ptrs++
		}
	}
	v.release()
	if inline == 0 || ptrs == 0 {
		t.Fatalf("selective separation not selective: inline=%d ptrs=%d", inline, ptrs)
	}
	// Scans cross both classes.
	kvs, err := db.Scan(key(0), nil, 300)
	if err != nil || len(kvs) != 300 {
		t.Fatalf("scan: %d %v", len(kvs), err)
	}
}

func TestSelectiveSeparationSurvivesSplitAndGC(t *testing.T) {
	fs := vfs.NewMem()
	opts := smallOpts(fs)
	opts.ValueThreshold = 100
	opts.GCRatio = 0.2
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	large := bytes.Repeat([]byte("x"), 200)
	for round := 0; round < 8; round++ {
		for i := 0; i < 400; i++ {
			if i%2 == 0 {
				db.Put(key(i), []byte(fmt.Sprintf("small-%d", round)))
			} else {
				db.Put(key(i), append(large, byte(round)))
			}
		}
	}
	db.CompactAll()
	for i := 0; i < 400; i++ {
		got, err := db.Get(key(i))
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		if i%2 == 0 && string(got) != "small-7" {
			t.Fatalf("key %d: %q", i, got)
		}
		if i%2 == 1 && (len(got) != 201 || got[200] != 7) {
			t.Fatalf("key %d: wrong large value", i)
		}
	}
}

// TestPutIsABatchOfOne pins a put to the batch path: its WAL record is the
// encoding of its one record, and a put that does not fill the memtable
// allocates nothing — the one-record batch stays on the stack, the WAL
// encodes into the partition's reused buffer and the memtable copies into
// its slabs. Put allocated nothing when it still had a path of its own.
func TestPutIsABatchOfOne(t *testing.T) {
	fs := vfs.NewMem()
	opts := smallOpts(fs)
	opts.MemtableSize = 64 << 20
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	k, v := key(1), val(1)
	if err := db.Put(k, v); err != nil {
		t.Fatal(err)
	}
	p := db.partitions()[0]
	f, err := fs.Open(walName(p.dir, p.cur.Load().wals[0]))
	if err != nil {
		t.Fatal(err)
	}
	got, err := wal.NewReader(f).Next()
	f.Close()
	want := record.Record{Key: k, Kind: record.KindSet, Value: v, Seq: db.seq.Load()}.Encode(nil)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the WAL record of a put is %x (%v), want %x", got, err, want)
	}

	const putAllocs = 0
	for _, op := range []struct {
		name string
		fn   func() error
	}{{"put", func() error { return db.Put(k, v) }}, {"delete", func() error { return db.Delete(k) }}} {
		allocs := testing.AllocsPerRun(1000, func() {
			if err := op.fn(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > putAllocs && !raceEnabled {
			t.Errorf("a %s allocates %v times, want at most %d", op.name, allocs, putAllocs)
		}
	}
}
