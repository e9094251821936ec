package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
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
// checks what the result keeps alive: at most twice the bytes returned,
// not the spans read.
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
	if bound := int64(2*wanted*valLen + slack); retained > bound {
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
		"no-prefetch": func(o *Options) { o.exp.DisableScanPrefetch = true },
		"no-parallel": func(o *Options) { o.exp.DisableScanParallel = true },
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

// scanAllocDB loads 2000 keys compacted behind value pointers, overwrites
// every fifth one into the memtable and the UnsortedStore (inline values)
// and returns the store with the index of the first key of its second
// partition.
func scanAllocDB(t *testing.T, tweak func(*Options)) (*DB, int) {
	t.Helper()
	opts := smallOpts(vfs.NewMem())
	tweak(&opts)
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	const n = 2000
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 5 {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	db.router.RLock()
	parts := db.partitions()
	db.router.RUnlock()
	if len(parts) < 2 {
		t.Fatalf("%d partitions, want at least 2", len(parts))
	}
	b := sort.Search(n, func(i int) bool { return bytes.Compare(key(i), parts[1].lower) >= 0 })
	if b < 60 || b >= n-60 {
		t.Fatalf("second partition starts at key %d: too close to an end", b)
	}
	return db, b
}

// TestScanAllocations: a warm scan over cache-resident blocks allocates its
// result slice and one region per partition it visits — nothing else, with
// readahead and the fetch pool on or off. 40 pointers per partition are
// over two fetch-pool chunks once DisableScanPrefetch makes each its own
// unit, so the parallel fill is counted too.
func TestScanAllocations(t *testing.T) {
	variants := map[string]func(*Options){
		"default":     func(*Options) {},
		"no-prefetch": func(o *Options) { o.exp.DisableScanPrefetch = true },
		"no-parallel": func(o *Options) { o.exp.DisableScanParallel = true },
	}
	for name, tweak := range variants {
		t.Run(name, func(t *testing.T) {
			db, b := scanAllocDB(t, tweak)
			for _, c := range []struct{ from, parts int }{{b - 50, 1}, {b - 25, 2}} {
				start, want := key(c.from), make([]KV, 50)
				for j := range want {
					want[j] = KV{Key: key(c.from + j), Value: val(c.from + j)}
				}
				scan := func() {
					kvs, err := db.Scan(start, nil, 50)
					if err != nil || !equalKVs(kvs, want) {
						t.Fatalf("scan from key %d: %d pairs, %v", c.from, len(kvs), err)
					}
				}
				allocs := testing.AllocsPerRun(50, scan)
				if raceEnabled {
					continue // the race detector's instrumentation allocates
				}
				if want := float64(1 + c.parts); allocs != want {
					t.Errorf("a warm scan over %d partition(s) allocates %v objects, want %v", c.parts, allocs, want)
				}
			}
		})
	}
}

// TestScanResultsSurvivePooledReuse: two goroutines scan over and over —
// live and snapshot scans, over one or two partitions, with pointers read
// in spans and in the fetch pool — reusing the pooled scanners' scratch,
// iterators and lists, while a third keeps every result it was handed and
// re-checks all of them byte for byte after each scan of its own. Under
// -race a result that aliased pooled memory shows as a race or a change.
func TestScanResultsSurvivePooledReuse(t *testing.T) {
	db, b := scanAllocDB(t, func(*Options) {})
	snap, err := db.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	type query struct {
		start, end []byte
		limit      int
	}
	queries := []query{{key(0), nil, 30}, {key(b - 25), nil, 50}, {key(b - 300), key(b + 300), 0}, {key(b + 5), key(b + 7), 10}}
	want := make([][]KV, len(queries))
	for i, q := range queries {
		kvs, err := db.Scan(q.start, q.end, q.limit)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = cloneKVs(kvs)
	}
	const rounds = 60
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (r + g) % len(queries)
				q := queries[i]
				scan := db.Scan
				if r%3 == 0 {
					scan = snap.Scan
				}
				got, err := scan(q.start, q.end, q.limit)
				if err != nil || !equalKVs(got, want[i]) {
					t.Errorf("scanner %d round %d: query %d returned a wrong result (%v)", g, r, i, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var kept [][]KV
		var keptWant [][]KV
		for r := 0; r < rounds; r++ {
			i := r % len(queries)
			got, err := db.Scan(queries[i].start, queries[i].end, queries[i].limit)
			if err != nil {
				t.Error(err)
				return
			}
			kept, keptWant = append(kept, got), append(keptWant, want[i])
			for j := range kept {
				if !equalKVs(kept[j], keptWant[j]) {
					t.Errorf("round %d: the result kept from round %d changed under later scans", r, j)
					return
				}
			}
		}
	}()
	wg.Wait()
}

// refsOut appends to out the path of every reference v holds — a non-nil
// pointer, interface, map, channel or function, or a byte slice — unless
// ownScratch says the scanner owns what it points at. Slices of other
// element types are walked to their capacity, so an element a shorter
// reslice hides still counts.
func refsOut(v reflect.Value, path string, ownScratch func(string) bool, out *[]string) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Map, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		if !v.IsNil() && !ownScratch(path) {
			*out = append(*out, path)
		}
	case reflect.Slice:
		switch {
		case v.IsNil():
		case v.Type().Elem().Kind() == reflect.Uint8:
			if !ownScratch(path) {
				*out = append(*out, path)
			}
		default:
			full := v.Slice(0, v.Cap())
			for i := 0; i < full.Len(); i++ {
				refsOut(full.Index(i), fmt.Sprintf("%s[%d]", path, i), ownScratch, out)
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			refsOut(v.Index(i), fmt.Sprintf("%s[%d]", path, i), ownScratch, out)
		}
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(sync.WaitGroup{}) {
			return
		}
		for i := 0; i < v.NumField(); i++ {
			refsOut(v.Field(i), path+"."+v.Type().Field(i).Name, ownScratch, out)
		}
	}
}

// TestReleasedScannerHoldsNothing: a scanner that has just scanned every
// tier — memtable, sorted view or per-table iterators, sorted run, value
// spans — references the store through its partition versions, iterators
// and result; released, it references nothing but its own byte scratch and
// pool job, so a pooled scanner keeps no version, table, block or result
// alive.
func TestReleasedScannerHoldsNothing(t *testing.T) {
	ownScratch := func(path string) bool {
		return path == ".buf" || path == ".job" || strings.HasPrefix(path, ".spans[")
	}
	for _, viewOff := range []bool{false, true} {
		t.Run(fmt.Sprintf("SortedViewOff=%v", viewOff), func(t *testing.T) {
			db, _ := scanAllocDB(t, func(o *Options) { o.exp.SortedViewOff = viewOff })
			snap, err := db.NewSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Close()
			sc := getScanner(db, nil, 0)
			for _, v := range snap.parts {
				if err := sc.scan(v, v.p.lower, snap.seq); err != nil {
					t.Fatal(err)
				}
			}
			if len(sc.out) != 2000 {
				t.Fatalf("scanned %d pairs, want 2000", len(sc.out))
			}
			var held []string
			refsOut(reflect.ValueOf(sc).Elem(), "", ownScratch, &held)
			tier := ".viewIt.v" // the unsorted tier's iterator
			if viewOff {
				tier = ".tabIts[0].r"
			}
			for _, want := range []string{".db", ".out[0].Key", ".memIts[0].m", tier, ".srtIt.s", ".merge.iters[0]"} {
				if !slices.Contains(held, want) {
					t.Fatalf("a scanner in use holds no %s: the walk misses references", want)
				}
			}
			sc.release()
			held = held[:0]
			refsOut(reflect.ValueOf(sc).Elem(), "", ownScratch, &held)
			if len(held) > 0 {
				t.Fatalf("a released scanner still references %v", held)
			}
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

// benchScan scans limit pairs from a start key that moves over the store,
// far enough from its end to find them.
func benchScan(b *testing.B, scan func(start, end []byte, limit int) ([]KV, error)) {
	for _, limit := range []int{10, 100, 1000} {
		b.Run(fmt.Sprint(limit), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kvs, err := scan(key(i*97%(5000-limit)), nil, limit)
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

// BenchmarkScanParallel is BenchmarkScan/100 from every P at once, so
// scanners go to and come from the pool concurrently.
func BenchmarkScanParallel(b *testing.B) {
	db := benchScanDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			kvs, err := db.Scan(key(i*97%4900), nil, 100)
			if err != nil || len(kvs) != 100 {
				b.Errorf("%d pairs, %v", len(kvs), err)
				return
			}
		}
	})
}

func BenchmarkSnapshotScan(b *testing.B) {
	snap, err := benchScanDB(b).NewSnapshot()
	if err != nil {
		b.Fatal(err)
	}
	defer snap.Close()
	benchScan(b, snap.Scan)
}
