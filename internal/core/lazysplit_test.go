package core

import (
	"bytes"
	"fmt"
	"testing"

	"unikv/internal/vfs"
	"unikv/internal/vlog"
)

// TestLazyValueSplitLifecycle drives the full shared-log story: a split
// leaves both children referencing the parent's value logs; each child's
// GC rewrites its live values into its own logs; once both children have
// moved on, the shared files are deleted.
func TestLazyValueSplitLifecycle(t *testing.T) {
	fs := vfs.NewMem()
	opts := smallOpts(fs)
	opts.GCRatio = 0.01 // GC eagerly once any garbage shows up
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Load past the split threshold.
	const n = 2000
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if db.Metrics().Partitions < 2 {
		t.Fatalf("no split happened")
	}

	// Find logs shared by more than one partition: named by more than one
	// current version.
	owners := ownersByScan(db)
	shared := map[uint32]int{}
	for _, p := range db.partitions() {
		for _, n := range p.cur.Load().logs {
			if c := owners(n); c > 1 {
				shared[n] = c
			}
		}
	}
	if len(shared) == 0 {
		t.Fatal("split left no shared logs — lazy value split untested")
	}
	for num := range shared {
		if !fs.Exists("db/vlog/" + vlog.LogName(num)) {
			t.Fatalf("shared log %d missing on disk", num)
		}
	}

	// Overwrite everything so every partition accumulates garbage and GCs,
	// rewriting live values out of the shared logs.
	for round := 0; round < 6; round++ {
		for i := 0; i < n; i++ {
			if err := db.Put(key(i), val(i+round*7)); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.CompactAll()
	// Force GC in every partition that still has garbage.
	for _, p := range db.partitions() {
		p.maintMu.Lock()
		v := p.acquire()
		err := p.gc(v)
		v.release()
		p.maintMu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}

	if db.Metrics().GCs == 0 {
		t.Fatal("no GC ran")
	}
	// Every originally shared log must be named by no version and deleted now.
	owners = ownersByScan(db)
	for num := range shared {
		if c := owners(num); c > 0 {
			t.Fatalf("shared log %d still has %d owners after GC everywhere", num, c)
		}
	}
	checkLogAccounting(t, db)
	for num := range shared {
		if fs.Exists("db/vlog/" + vlog.LogName(num)) {
			t.Fatalf("shared log %d not deleted after both children GC'd", num)
		}
	}

	// Data intact.
	for i := 0; i < n; i += 37 {
		got, err := db.Get(key(i))
		if err != nil || !bytes.Equal(got, val(i+35)) {
			t.Fatalf("key %d after lazy split + GC: %q %v", i, got, err)
		}
	}
}

// TestSplitPreservesBoundaryInvariants checks the router invariants after
// several splits: partitions tile the key space in order, with no overlap
// and no gaps.
func TestSplitPreservesBoundaryInvariants(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs)
	defer db.Close()
	for i := 0; i < 3000; i++ {
		db.Put(key(i), val(i))
	}
	parts := db.partitions()
	if len(parts) < 3 {
		t.Skipf("only %d partitions", len(parts))
	}
	if len(parts[0].lower) != 0 {
		t.Fatalf("first partition's lower bound must be empty, got %q", parts[0].lower)
	}
	for i, p := range parts {
		lower, upper := p.lower, p.cur.Load().upper
		if i+1 < len(parts) {
			next := parts[i+1]
			if !bytes.Equal(upper, next.lower) {
				t.Fatalf("gap/overlap between partition %d (upper=%q) and %d (lower=%q)",
					i, upper, i+1, next.lower)
			}
			if bytes.Compare(lower, next.lower) >= 0 {
				t.Fatalf("partition order broken at %d", i)
			}
		} else if upper != nil {
			t.Fatalf("last partition must be unbounded, got upper=%q", upper)
		}
	}
	// Every partition's tables stay inside its range.
	for _, p := range parts {
		v := p.acquire()
		for _, tab := range v.srt.Tables() {
			if len(p.lower) > 0 && bytes.Compare(tab.Meta.Smallest, p.lower) < 0 {
				t.Fatalf("table below partition lower bound: %q < %q", tab.Meta.Smallest, p.lower)
			}
			if v.upper != nil && bytes.Compare(tab.Meta.Largest, v.upper) >= 0 {
				t.Fatalf("table above partition upper bound: %q >= %q", tab.Meta.Largest, v.upper)
			}
		}
		v.release()
	}
}

// TestSplitDuringConcurrentReads hammers reads while load triggers splits.
func TestSplitDuringConcurrentReads(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs)
	defer db.Close()
	for i := 0; i < 500; i++ {
		db.Put(key(i), val(i))
	}
	done := make(chan error, 4)
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		go func(g int) {
			i := g
			for {
				select {
				case <-stop:
					done <- nil
					return
				default:
				}
				i = (i + 13) % 500
				got, err := db.Get(key(i))
				if err != nil || !bytes.Equal(got, val(i)) {
					done <- err
					return
				}
				if _, err := db.Scan(key(i), nil, 10); err != nil {
					done <- err
					return
				}
			}
		}(g)
	}
	go func() {
		// Writes to a disjoint key band force splits under the readers.
		for i := 500; i < 4000; i++ {
			if err := db.Put(key(i), val(i)); err != nil {
				done <- err
				return
			}
		}
		close(stop)
		done <- nil
	}()
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if db.Metrics().Splits == 0 {
		t.Fatal("no splits under concurrency — test vacuous")
	}
}

// TestSplitReadFaultNeverTruncates fails, once, every table read a split
// issues. A merge iterator that hits a read error stops like one that ran
// out of input, so a split that does not ask its stream for the error takes
// the fault for the end of the data and commits what it has seen so far —
// at the commit before this test, one failed read in the second pass lost up
// to two thirds of the keys, silently. Whatever the read, the split either
// fails and leaves one partition, or succeeds and leaves two; every key is
// readable either way, before and after a reopen. The cache is off so that
// each block read reaches the file system.
func TestSplitReadFaultNeverTruncates(t *testing.T) {
	const n = 3000
	seedOpts := func(fs vfs.FS) Options {
		opts := smallOpts(fs)
		opts.CacheBytes = CacheOff
		opts.PartitionSizeLimit = 1 << 40 // the test splits by hand
		return opts
	}
	seed := vfs.NewMem()
	db, err := Open("db", seedOpts(seed))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	checkAll := func(t *testing.T, db *DB, when string) {
		t.Helper()
		lost := 0
		for i := 0; i < n; i++ {
			if got, err := db.Get(key(i)); err != nil || !bytes.Equal(got, val(i)) {
				lost++
			}
		}
		if lost > 0 {
			t.Fatalf("%s: %d of %d keys gone", when, lost, n)
		}
	}
	// split runs one forced split with the k-th table read failing and
	// returns how many table reads it issued.
	split := func(t *testing.T, k int64) int64 {
		inner := vfs.NewMem()
		copyFS(t, seed, inner)
		ffs := vfs.NewFail(inner)
		db, err := Open("db", seedOpts(ffs))
		if err != nil {
			t.Fatal(err)
		}
		db.opts.PartitionSizeLimit = 1
		ffs.ArmPlan(vfs.FailPlan{Skip: k, Fail: 1, Kinds: vfs.OpReadAt, Pattern: "*.sst"})
		err = db.splitPartition(db.partitions()[0])
		reads := ffs.MatchedOps()
		ffs.Disarm()
		db.opts.PartitionSizeLimit = 1 << 40
		if parts := len(db.partitions()); (err != nil && parts != 1) || (err == nil && parts != 2) {
			t.Fatalf("split returned %v and left %d partitions", err, parts)
		}
		checkAll(t, db, "after the split")
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if db, err = Open("db", seedOpts(inner)); err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		checkAll(t, db, "after a reopen")
		return reads
	}
	reads := split(t, 1<<40) // no fault: count the reads
	if reads < 50 {
		t.Fatalf("a split of %d keys read tables only %d times", n, reads)
	}
	step := int64(1)
	if testing.Short() {
		step = 7
	}
	for k := int64(0); k < reads; k += step {
		k := k
		t.Run(fmt.Sprintf("read=%d", k), func(t *testing.T) { split(t, k) })
	}
}

// TestMergeLogsOutliveGCBesideIt replays, step by step, the race the vlog
// append pins once fenced. Partition A's merge appends its values to the
// shared active log L, which rotates in the middle of the build, so some of
// A's uncommitted pointers lead into L. Partition B, whose own merge wrote
// into L before, then GCs — L is no longer active, so B collects it — and
// commits a version without L. No version names L any more; A's merge, in
// flight, names every log from L up, and so L stays until A commits a
// version naming it. Every one of A's values reads back.
func TestMergeLogsOutliveGCBesideIt(t *testing.T) {
	opts := smallOpts(vfs.NewMem())
	opts.exp.DisableScanMerge = true
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for n := 0; len(db.partitions()) == 1; n++ {
		if n > 100000 {
			t.Fatal("never split")
		}
		if err := db.Put(key(n), val(n)); err != nil {
			t.Fatal(err)
		}
	}
	// From here on every merge, GC and split is the test's.
	db.opts.PartitionSizeLimit, db.opts.UnsortedLimit = 1<<40, 1<<40
	a, b := db.partitions()[0], db.partitions()[1]
	value := func(k string) []byte { return bytes.Repeat([]byte(k), 256/len(k)) }
	load := func(p *partition, prefix string, n int) (keys []string) {
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("%s%s-%04d", p.lower, prefix, i)
			if err := db.Put([]byte(k), value(k)); err != nil {
				t.Fatal(err)
			}
			keys = append(keys, k)
		}
		if err := p.flushAll(); err != nil {
			t.Fatal(err)
		}
		return keys
	}
	runJob := func(p *partition, job func(*version) error) {
		t.Helper()
		p.maintMu.Lock()
		v := p.acquire()
		err := job(v)
		v.release()
		p.maintMu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}

	load(b, "b", 10)
	runJob(b, b.merge)
	l, ok := db.vl.ActiveNum()
	if !ok || !b.cur.Load().hasLog(l) {
		t.Fatalf("B's merge left no active log it names (active %d, %v)", l, ok)
	}
	keys := load(a, "a", 120) // 30 KiB of values: the 8 KiB log rotates under A's merge
	db.testHookMergeBuild = func(p *partition) {
		if p != a {
			return
		}
		if active, _ := db.vl.ActiveNum(); active == l {
			t.Fatal("the active log did not rotate during A's merge")
		}
		runJob(b, b.gc)
		if b.cur.Load().hasLog(l) {
			t.Fatalf("B's GC kept log %d", l)
		}
	}
	runJob(a, a.merge)
	db.testHookMergeBuild = nil
	if !a.cur.Load().hasLog(l) {
		t.Fatalf("A's merge put nothing into log %d", l)
	}
	for _, k := range keys {
		if got, err := db.Get([]byte(k)); err != nil || !bytes.Equal(got, value(k)) {
			t.Fatalf("%s after the GC beside the merge: %q, %v", k, got, err)
		}
	}
	checkLogAccounting(t, db)
	checkFileSet(t, db)
}
