package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"unikv/internal/vfs"
)

// scanSeed loads n keys so that a scan crosses every tier: the first
// three quarters are compacted into the SortedStore (values behind
// pointers), the rest stays in the memtable and the UnsortedStore (values
// inline), and every seventh key is deleted afterwards.
func scanSeed(t testing.TB, db *DB, n int) {
	t.Helper()
	for i := 0; i < n*3/4; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	for i := n * 3 / 4; i < n; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 7 {
		if err := db.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func cloneKVs(kvs []KV) []KV {
	out := make([]KV, len(kvs))
	for i, kv := range kvs {
		out[i] = KV{Key: bytes.Clone(kv.Key), Value: bytes.Clone(kv.Value)}
	}
	return out
}

// equalKVs is sameKVs for goroutines that may not call t.Fatalf.
func equalKVs(a, b []KV) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// TestScanResultOwnership is the aliasing contract of a Scan result: pairs
// may share backing arrays, but every slice ends at its own capacity, so
// overwriting all of one key or value and appending to it leaves every
// other pair byte-identical.
func TestScanResultOwnership(t *testing.T) {
	db := openSmall(t, vfs.NewMem())
	defer db.Close()
	scanSeed(t, db, 400)

	kvs, err := db.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m := db.Metrics(); m.ScanPrefetchIssued == 0 {
		t.Fatal("no value span was read: the scan aliased nothing")
	}
	want := cloneKVs(kvs)
	scribble := func(b []byte) []byte {
		for i := range b {
			b[i] = 0xEE
		}
		return append(b, bytes.Repeat([]byte{0xEE}, 64)...)
	}
	for i := range kvs {
		kvs[i].Key = scribble(kvs[i].Key)
		kvs[i].Value = scribble(kvs[i].Value)
		for j := i + 1; j < len(kvs); j++ {
			if !bytes.Equal(kvs[j].Key, want[j].Key) || !bytes.Equal(kvs[j].Value, want[j].Value) {
				t.Fatalf("scribbling over pair %d changed pair %d", i, j)
			}
		}
	}
}

// TestScanRetentionBound scans values that sit ~16 KiB apart in one log —
// close enough to be read as one span, far too sparse to alias it — and
// checks what the result keeps alive: at most twice the bytes returned
// plus one arena chunk, not the spans read.
func TestScanRetentionBound(t *testing.T) {
	const (
		wanted  = 64
		fillers = 15 // between two wanted keys, in key order and so in log order
		valLen  = 1024
	)
	opts := smallOpts(vfs.NewMem())
	opts.MaxLogSize = 8 << 20
	opts.PartitionSizeLimit = 64 << 20
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	value := bytes.Repeat([]byte("r"), valLen)
	for i := 0; i < wanted*(fillers+1); i++ {
		if err := db.Put(key(i), value); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < wanted*(fillers+1); i++ {
		if i%(fillers+1) != 0 {
			if err := db.Delete(key(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	scan := func() []KV {
		kvs, err := db.Scan(nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(kvs) != wanted {
			t.Fatalf("scan returned %d pairs, want %d", len(kvs), wanted)
		}
		return kvs
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	scan() // fills the caches and builds the view, which stay allocated
	before := db.Metrics()
	h0 := heap()
	kvs := scan()
	retained := int64(heap() - h0)
	after := db.Metrics()
	runtime.KeepAlive(kvs)

	if after.ScanPrefetchIssued == before.ScanPrefetchIssued {
		t.Fatal("no span was read: the values are not laid out as the test intends")
	}
	const slack = 32 << 10 // the result slice itself, size-class rounding, runtime noise
	if bound := int64(2*wanted*valLen + scanArenaChunk + slack); retained > bound {
		t.Fatalf("a result of %d value bytes keeps %d bytes alive, bound %d", wanted*valLen, retained, bound)
	}
}

// TestScanCorruptLogQuarantinesOwner arms read-time flips in the sealed
// value logs and scans inside one partition: the span's in-place check
// rejects the frame, the per-value read it falls back to fails the same
// way, and the error classifies as corruption, quarantining that
// partition alone.
func TestScanCorruptLogQuarantinesOwner(t *testing.T) {
	mem := vfs.NewMem()
	n := bigSeed(t, mem)
	ffs := vfs.NewFail(mem)
	db, err := Open("db", bgOpts(ffs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ffs.ArmCorrupt(vfs.CorruptPlan{Pattern: "vlog-*.log", Start: 64, Stride: 512, Count: 8})
	defer ffs.DisarmCorrupt()

	_, err = db.Scan(key(0), nil, 300)
	if err == nil {
		t.Fatalf("scan over flipped value frames succeeded (reads corrupted: %d)", ffs.CorruptedReads())
	}
	if Classify(err) != ClassCorruption {
		t.Fatalf("scan error %v classified %s, want corruption", err, Classify(err))
	}
	m := db.Metrics()
	if m.QuarantinedPartitions != 1 {
		t.Fatalf("QuarantinedPartitions=%d after a corrupt scan, want 1", m.QuarantinedPartitions)
	}
	if m.Degraded {
		t.Fatal("scan corruption degraded the whole DB")
	}
	ffs.DisarmCorrupt()
	if quarantined, accepted := probeWrites(t, db, n); quarantined == 0 || accepted == 0 {
		t.Fatalf("quarantine scope wrong: %d writes rejected, %d accepted", quarantined, accepted)
	}
}

// TestSnapshotScanMatchesLiveScan: Snapshot.Scan and DB.Scan run the same
// collect-and-fill helper, so on a quiescent store they agree on every
// range and limit, with readahead and the fetch pool on or off; then two
// scanners race a writer (run under -race): the snapshot keeps returning
// the quiescent result, the live scan stays ordered and bounded.
func TestSnapshotScanMatchesLiveScan(t *testing.T) {
	variants := map[string]func(*Options){
		"default":     func(*Options) {},
		"no-prefetch": func(o *Options) { o.DisableScanPrefetch = true },
		"no-parallel": func(o *Options) { o.DisableScanParallel = true },
	}
	for name, tweak := range variants {
		tweak := tweak
		t.Run(name, func(t *testing.T) {
			leakCheck(t)
			opts := bgOpts(vfs.NewMem())
			tweak(&opts)
			db, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			const n = 600
			scanSeed(t, db, n)
			snap, err := db.NewSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Close()

			type query struct {
				start, end []byte
				limit      int
			}
			queries := []query{
				{nil, nil, 0},
				{key(10), key(500), 0},
				{key(100), nil, 37},
				{key(440), key(460), 100}, // the tier seam
				{key(n), nil, 5},          // past the last key
			}
			quiescent := make([][]KV, len(queries))
			for i, q := range queries {
				live, err := db.Scan(q.start, q.end, q.limit)
				if err != nil {
					t.Fatal(err)
				}
				pinned, err := snap.Scan(q.start, q.end, q.limit)
				if err != nil {
					t.Fatal(err)
				}
				sameKVs(t, fmt.Sprintf("query %d, live vs snapshot", i), live, pinned)
				quiescent[i] = live
			}
			if len(quiescent[0]) != n-(n+6)/7 {
				t.Fatalf("full scan returned %d pairs, want %d", len(quiescent[0]), n-(n+6)/7)
			}

			stop := make(chan struct{})
			var writer, scanners sync.WaitGroup
			writer.Add(1)
			go func() {
				defer writer.Done()
				rnd := rand.New(rand.NewSource(1))
				for round := 0; ; round++ {
					select {
					case <-stop:
						return
					default:
					}
					i := rnd.Intn(n + 50)
					var err error
					if round%5 == 0 {
						err = db.Delete(key(i))
					} else {
						err = db.Put(key(i), []byte(fmt.Sprintf("new-%d-%d", round, i)))
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
			scanners.Add(2)
			go func() {
				defer scanners.Done()
				for round := 0; round < 60; round++ {
					i := round % len(queries)
					q := queries[i]
					got, err := snap.Scan(q.start, q.end, q.limit)
					if err != nil {
						t.Error(err)
						return
					}
					if !equalKVs(got, quiescent[i]) {
						t.Errorf("round %d: snapshot scan %d moved under writes", round, i)
						return
					}
				}
			}()
			go func() {
				defer scanners.Done()
				for round := 0; round < 60; round++ {
					q := queries[round%len(queries)]
					got, err := db.Scan(q.start, q.end, q.limit)
					if err != nil {
						t.Error(err)
						return
					}
					if q.limit > 0 && len(got) > q.limit {
						t.Errorf("live scan returned %d pairs over limit %d", len(got), q.limit)
					}
					for j, kv := range got {
						if (j > 0 && bytes.Compare(got[j-1].Key, kv.Key) >= 0) ||
							(q.start != nil && bytes.Compare(kv.Key, q.start) < 0) ||
							(q.end != nil && bytes.Compare(kv.Key, q.end) >= 0) {
							t.Errorf("live scan out of order or bounds at %q", kv.Key)
							return
						}
					}
				}
			}()
			scanners.Wait()
			close(stop)
			writer.Wait()
		})
	}
}

// benchScanDB is a store with both tiers populated, 1 KiB values: 3000
// keys compacted behind pointers, 1000 more in the memtable and the
// UnsortedStore.
func benchScanDB(b *testing.B) *DB {
	b.Helper()
	db, err := Open("db", Options{FS: vfs.NewMem()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	value := bytes.Repeat([]byte("b"), 1024)
	for i := 0; i < 3000; i++ {
		if err := db.Put(key(2*i), value); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.CompactAll(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := db.Put(key(6*i+1), value); err != nil {
			b.Fatal(err)
		}
		if i == 500 {
			if err := db.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
	return db
}

var benchKVs []KV

func benchScan(b *testing.B, scan func(start, end []byte, limit int) ([]KV, error)) {
	for _, limit := range []int{10, 100} {
		b.Run(fmt.Sprint(limit), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kvs, err := scan(key(i*97%5000), nil, limit)
				if err != nil || len(kvs) != limit {
					b.Fatalf("%d pairs, %v", len(kvs), err)
				}
				benchKVs = kvs
			}
		})
	}
}

func BenchmarkScan(b *testing.B) {
	benchScan(b, benchScanDB(b).Scan)
}

func BenchmarkSnapshotScan(b *testing.B) {
	snap, err := benchScanDB(b).NewSnapshot()
	if err != nil {
		b.Fatal(err)
	}
	defer snap.Close()
	benchScan(b, snap.Scan)
}
