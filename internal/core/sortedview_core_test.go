package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"unikv/internal/vfs"
)

// TestSortedViewEquivalence is the view's property test: one random 6000-op
// trace applied to a view-on DB and a view-off DB must produce identical
// results for every Get, Put, Delete, and Scan. Scans are weighted heavily
// (they are the code under test), and the tiny limits plus periodic forced
// flushes drive every view transition throughout the trace: incremental
// builds at flush, derived successors at merge and scan merge, resets at
// split — none of which reads a table, so the trace, which never reopens,
// counts no rebuild.
//
// Mid-trace the test pins snapshots on both DBs: each snapshot's full dump
// is captured at pin time, the trace keeps storming (flushes, merges,
// splits, GC), and at trace end every snapshot must replay byte-identically
// — on the view path and the per-table fallback path alike. The trace runs
// on both executors: with a worker the view is extended, replaced and reset
// behind the writer's back, at points the trace does not choose.
func TestSortedViewEquivalence(t *testing.T) {
	for _, workers := range executors {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { sortedViewEquivalence(t, workers) })
	}
}

func sortedViewEquivalence(t *testing.T, workers int) {
	onOpts := smallOpts(vfs.NewMem())
	onOpts.PartitionSizeLimit = 16 << 10 // low enough that the trace splits
	onOpts.BackgroundWorkers = workers
	on, err := Open("on", onOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer on.Close()
	offOpts := smallOpts(vfs.NewMem())
	offOpts.PartitionSizeLimit = 16 << 10
	offOpts.exp.SortedViewOff = true
	offOpts.BackgroundWorkers = workers
	off, err := Open("off", offOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()

	rnd := rand.New(rand.NewSource(43))
	k := func() []byte { return []byte(fmt.Sprintf("key-%03d", rnd.Intn(200))) }
	type pin struct {
		op      int
		on, off *Snapshot
		want    []KV
	}
	var pins []pin
	for op := 0; op < 6000; op++ {
		if op == 2000 || op == 4000 {
			sOn, err := on.NewSnapshot()
			if err != nil {
				t.Fatalf("op %d: on.NewSnapshot: %v", op, err)
			}
			sOff, err := off.NewSnapshot()
			if err != nil {
				t.Fatalf("op %d: off.NewSnapshot: %v", op, err)
			}
			want := dumpSnap(t, sOn)
			sameKVs(t, fmt.Sprintf("op %d: on vs off snapshot", op), want, dumpSnap(t, sOff))
			pins = append(pins, pin{op: op, on: sOn, off: sOff, want: want})
		}
		switch rnd.Intn(10) {
		case 0, 1, 2, 3: // Put
			key := k()
			val := []byte(fmt.Sprintf("val-%d-%s", op, bytes.Repeat([]byte("y"), 120+rnd.Intn(80))))
			if err := on.Put(key, val); err != nil {
				t.Fatalf("op %d: on.Put: %v", op, err)
			}
			if err := off.Put(key, val); err != nil {
				t.Fatalf("op %d: off.Put: %v", op, err)
			}
		case 4: // Delete
			key := k()
			if err := on.Delete(key); err != nil {
				t.Fatalf("op %d: on.Delete: %v", op, err)
			}
			if err := off.Delete(key); err != nil {
				t.Fatalf("op %d: off.Delete: %v", op, err)
			}
		case 5: // forced flush: a fresh table, view-on an incremental build
			if err := on.Flush(); err != nil {
				t.Fatalf("op %d: on.Flush: %v", op, err)
			}
			if err := off.Flush(); err != nil {
				t.Fatalf("op %d: off.Flush: %v", op, err)
			}
		case 6, 7, 8: // Scan
			start := k()
			end := append(append([]byte(nil), start...), 0xff)
			a, errA := on.Scan(start, end, 20)
			b, errB := off.Scan(start, end, 20)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("op %d: scan errs diverge: %v vs %v", op, errA, errB)
			}
			if len(a) != len(b) {
				t.Fatalf("op %d: scan lengths diverge: %d vs %d", op, len(a), len(b))
			}
			for i := range a {
				if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
					t.Fatalf("op %d: scan[%d] diverges: %q=%q vs %q=%q",
						op, i, a[i].Key, a[i].Value, b[i].Key, b[i].Value)
				}
			}
		default: // Get
			key := k()
			a, errA := on.Get(key)
			b, errB := off.Get(key)
			if !errors.Is(errA, errB) && (errA != nil || errB != nil) {
				t.Fatalf("op %d: Get(%s) errs diverge: %v vs %v", op, key, errA, errB)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("op %d: Get(%s) diverges: %q vs %q", op, key, a, b)
			}
		}
	}

	// Every mid-trace snapshot must replay exactly its pin-time dump after
	// thousands of further ops and all the maintenance they triggered.
	for _, p := range pins {
		sameKVs(t, fmt.Sprintf("op %d snapshot (view on) at trace end", p.op), p.want, dumpSnap(t, p.on))
		sameKVs(t, fmt.Sprintf("op %d snapshot (view off) at trace end", p.op), p.want, dumpSnap(t, p.off))
		if err := p.on.Close(); err != nil {
			t.Fatal(err)
		}
		if err := p.off.Close(); err != nil {
			t.Fatal(err)
		}
	}

	mOn, mOff := on.Metrics(), off.Metrics()
	if mOn.SortedViewBuilds == 0 || mOn.SortedViewRebuilds != 0 {
		t.Fatalf("trace never exercised the view, or a commit rebuilt it from its tables: builds=%d rebuilds=%d",
			mOn.SortedViewBuilds, mOn.SortedViewRebuilds)
	}
	if mOn.Splits == 0 || mOn.Merges == 0 || mOn.ScanMerges == 0 {
		t.Fatalf("trace never exercised maintenance: splits=%d merges=%d scan-merges=%d",
			mOn.Splits, mOn.Merges, mOn.ScanMerges)
	}
	if mOff.SortedViewBuilds != 0 || mOff.SortedViewEntries != 0 {
		t.Fatalf("view-off DB built a view: %+v", mOff)
	}
}

// TestScanLimitEquivalenceViewOnOff is the S2 audit's pinned conclusion:
// on both the cross-table sorted-view path and the per-table fallback path
// (SortedViewOff) a tombstone is skipped BEFORE the limit check, so a
// limit-N scan over a tombstone-riddled range returns the same N live keys
// on either path. The audit found no divergence — both branches feed one
// shared emit loop whose tombstone `continue` precedes the count — and
// this randomized cross-check (many deletes, limits from 1 up, bounded
// and unbounded ranges) keeps it that way.
func TestScanLimitEquivalenceViewOnOff(t *testing.T) {
	onOpts := smallOpts(vfs.NewMem())
	onOpts.PartitionSizeLimit = 16 << 10
	on, err := Open("on", onOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer on.Close()
	offOpts := smallOpts(vfs.NewMem())
	offOpts.PartitionSizeLimit = 16 << 10
	offOpts.exp.SortedViewOff = true
	off, err := Open("off", offOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()

	// A delete-heavy trace leaves tombstones at every level: live in the
	// memtable, flushed into unsorted tables, and merged into the sorted
	// store, so limit counting meets shadowed keys on every path.
	rnd := rand.New(rand.NewSource(47))
	k := func(i int) []byte { return []byte(fmt.Sprintf("key-%03d", i)) }
	for op := 0; op < 3000; op++ {
		switch {
		case op%9 < 5: // Put
			key := k(rnd.Intn(200))
			val := []byte(fmt.Sprintf("val-%d-%s", op, bytes.Repeat([]byte("t"), 100+rnd.Intn(60))))
			if err := on.Put(key, val); err != nil {
				t.Fatal(err)
			}
			if err := off.Put(key, val); err != nil {
				t.Fatal(err)
			}
		case op%9 < 8: // Delete — heavy, to shadow runs of consecutive keys
			key := k(rnd.Intn(200))
			if err := on.Delete(key); err != nil {
				t.Fatal(err)
			}
			if err := off.Delete(key); err != nil {
				t.Fatal(err)
			}
		default:
			if err := on.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := off.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}

	check := func(what string, start, end []byte, limit int) {
		t.Helper()
		a, errA := on.Scan(start, end, limit)
		b, errB := off.Scan(start, end, limit)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: errs diverge: %v vs %v", what, errA, errB)
		}
		sameKVs(t, what, a, b)
		if limit > 0 && len(a) > limit {
			t.Fatalf("%s: limit %d overshot: %d results", what, limit, len(a))
		}
	}
	for trial := 0; trial < 400; trial++ {
		start := k(rnd.Intn(200))
		limit := []int{1, 2, 3, 5, 20, 250}[rnd.Intn(6)]
		switch rnd.Intn(3) {
		case 0: // bounded range, counted
			end := k(rnd.Intn(200) + 1)
			if bytes.Compare(start, end) > 0 {
				start, end = end, start
			}
			check(fmt.Sprintf("trial %d: [%s,%s) limit %d", trial, start, end, limit), start, end, limit)
		case 1: // unbounded range, counted
			check(fmt.Sprintf("trial %d: [%s,∞) limit %d", trial, start, limit), start, nil, limit)
		default: // bounded range, uncounted (limit <= 0)
			end := []byte("key-\xff")
			check(fmt.Sprintf("trial %d: [%s,%s) unlimited", trial, start, end), start, end, 0)
		}
	}
}

// TestSortedViewSurvivesRecovery: after a reopen the view is stale (it is
// memory-only and deliberately not rebuilt during recovery, to keep the
// hash checkpoint's read savings); the first scan rebuilds it lazily and
// must see exactly the recovered data.
func TestSortedViewSurvivesRecovery(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs)
	want := map[string]string{}
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("key-%03d", i%120)
		v := fmt.Sprintf("val-%d", i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = openSmall(t, fs)
	defer db.Close()
	if m := db.Metrics(); m.SortedViewEntries != 0 {
		t.Fatalf("recovery eagerly built the view: %d entries", m.SortedViewEntries)
	}
	kvs, err := db.Scan([]byte("key-"), []byte("key-\xff"), len(want)+10)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != len(want) {
		t.Fatalf("post-recovery scan: %d keys, want %d", len(kvs), len(want))
	}
	for _, kv := range kvs {
		if want[string(kv.Key)] != string(kv.Value) {
			t.Fatalf("post-recovery scan %s: got %q want %q", kv.Key, kv.Value, want[string(kv.Key)])
		}
	}
	m := db.Metrics()
	if m.UnsortedTables > 0 && m.SortedViewRebuilds == 0 {
		t.Fatalf("first scan did not lazily rebuild the view: %+v", m)
	}
}

// TestFirstScansBuildTheViewOnce: recovery leaves the view unbuilt, and of
// the scans that find it so only one reads every table to build it — the
// others merge per table beside it. Eight first scans start together with
// the cache off, so every block touched is a table read; the first read is
// held until seven scans are through, which leaves the builder (or a scan
// beside it) mid-flight while the rest decide.
func TestFirstScansBuildTheViewOnce(t *testing.T) {
	mem := vfs.NewMem()
	opts := smallOpts(mem)
	opts.MemtableSize = 16 << 10
	opts.UnsortedLimit = 1 << 20
	opts.PartitionSizeLimit = 1 << 30
	opts.exp.BlockSize = 256
	opts.exp.DisableScanMerge = true
	opts.CacheBytes = CacheOff
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	const scans = 8
	var reads, finished atomic.Int64
	var counting, held atomic.Bool
	release := make(chan struct{})
	opts.FS = &probeFS{FS: mem, onIO: func(op, _ string) {
		if op != "ReadAt" || !counting.Load() {
			return
		}
		reads.Add(1)
		if held.CompareAndSwap(false, true) {
			<-release
		}
	}}
	if db, err = Open("db", opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var buildReads int64
	for _, p := range db.partitions() {
		for _, tab := range p.cur.Load().uns.Tables() {
			buildReads += int64(tab.Reader.NumBlocks())
		}
	}
	if buildReads < 200 {
		t.Fatalf("the unsorted tables hold %d blocks: too few to tell a build from a scan", buildReads)
	}
	counting.Store(true)
	var wg sync.WaitGroup
	for g := 0; g < scans; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			kvs, err := db.Scan(key(g*100), nil, 5)
			if err != nil || len(kvs) != 5 || !bytes.Equal(kvs[0].Key, key(g*100)) {
				t.Errorf("scan %d: %d pairs, %v", g, len(kvs), err)
			}
			if finished.Add(1) == scans-1 {
				close(release)
			}
		}(g)
	}
	wg.Wait()
	if m := db.Metrics(); m.SortedViewEntries == 0 {
		t.Fatal("no scan built the view")
	}
	if n := reads.Load(); n < buildReads || n >= 2*buildReads {
		t.Fatalf("%d first scans read %d table blocks; one build reads %d", scans, n, buildReads)
	}
}
