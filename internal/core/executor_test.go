package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unikv/internal/vfs"
)

// executors are the two job executors (BackgroundWorkers values) the
// maintenance tests run on: the submitting goroutine, and a pool of one.
// The job bodies are the same; tests that need determinism use one writer
// and settle between operations.
var executors = []int{0, 1}

// settle waits until the pool has run everything the operations so far
// armed — chains included, and failures escalated. A store without workers
// has nothing pending once its operation returned.
func settle(db *DB) {
	for db.sched.pendingJobs() > 0 {
		time.Sleep(20 * time.Microsecond)
	}
}

// park abandons db the way a crash does — no Close, nothing flushed — but
// stops its executor first, so that no job of the dead handle touches the
// files the test reopens.
func park(db *DB) {
	db.closed.Store(true)
	db.sched.close()
}

// TestExecutorCallerRunHoldsNoLock holds a zero-worker merge between its
// build and its commit — on the goroutine of the Put that caused it — and
// shows what that no longer blocks: a Get, a Scan, a snapshot capture (every
// partition's lock) and a
// Put to the same partition all complete while the merge is held. Before
// the inline twins were deleted the merge ran under the partition lock and
// the last two waited for it to end.
func TestExecutorCallerRunHoldsNoLock(t *testing.T) {
	opts := smallOpts(vfs.NewMem())
	opts.exp.DisablePartitioning = true
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	db.testHookMergeBuild = func(*partition) {
		once.Do(func() {
			close(held)
			<-release
		})
	}
	writer := make(chan error, 1)
	go func() {
		for i := 0; i < 2000 && db.Metrics().Merges == 0; i++ {
			if err := db.Put(key(i), val(i)); err != nil {
				writer <- err
				return
			}
		}
		writer <- nil
	}()
	select {
	case <-held:
	case err := <-writer:
		t.Fatalf("the writer finished without a merge: %v", err)
	}

	others := make(chan error, 1)
	go func() {
		others <- func() error {
			if got, err := db.Get(key(0)); err != nil || !bytes.Equal(got, val(0)) {
				return fmt.Errorf("Get: %q, %v", got, err)
			}
			if kvs, err := db.Scan(key(0), nil, 10); err != nil || len(kvs) != 10 {
				return fmt.Errorf("Scan: %d pairs, %v", len(kvs), err)
			}
			snap, err := db.NewSnapshot()
			if err != nil {
				return fmt.Errorf("NewSnapshot: %v", err)
			}
			if err := snap.Close(); err != nil {
				return err
			}
			if err := db.Put([]byte("beside-the-merge"), []byte("ok")); err != nil {
				return fmt.Errorf("Put: %v", err)
			}
			return nil
		}()
	}()
	select {
	case err := <-others:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(20 * time.Second):
		t.Error("a read, a snapshot or a put waited for a caller-run merge build")
	}
	close(release)
	if err := <-writer; err != nil {
		t.Fatal(err)
	}
	if got, err := db.Get([]byte("beside-the-merge")); err != nil || string(got) != "ok" {
		t.Fatalf("the put beside the merge: %q, %v", got, err)
	}
}

// TestExecutorConcurrentWriters runs four writers on a store without
// workers: each runs the maintenance its own puts cause, beside the others.
// Every acknowledged key is readable, the immutable queue never grows past
// one frozen memtable per writer (a writer flushes before its put returns),
// and after Close the directory holds exactly the files the manifest names.
func TestExecutorConcurrentWriters(t *testing.T) {
	leakCheck(t)
	const writers, perWriter = 4, 1500
	fs := vfs.NewMem()
	db, err := Open("db", smallOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	var maxQueue atomic.Int64
	db.testHookPublish = func(v *version) {
		for n := int64(len(v.imm)); ; {
			if old := maxQueue.Load(); n <= old || maxQueue.CompareAndSwap(old, n) {
				return
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := w*perWriter + i%500 // overwrites: merges leave garbage for GC
				if err := db.Put(key(k), val(k+i)); err != nil {
					errs <- fmt.Errorf("writer %d put %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.Merges == 0 || m.GCs == 0 || m.Splits == 0 {
		t.Fatalf("workload too small: %+v", m)
	}
	if q := maxQueue.Load(); q > writers {
		t.Errorf("the immutable queue reached %d frozen memtables with %d writers", q, writers)
	}
	check := func(db *DB) {
		t.Helper()
		for w := 0; w < writers; w++ {
			for j := 0; j < 500; j++ {
				k := w*perWriter + j
				last := j + (perWriter-1-j)/500*500 // the last i with i%500 == j
				if got, err := db.Get(key(k)); err != nil || !bytes.Equal(got, val(k+last)) {
					t.Fatalf("key %d: %q, %v; want version %d", k, got, err, last)
				}
			}
		}
	}
	check(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open("db", smallOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	check(db)
	checkFileSet(t, db)
}

// TestExecutorErrorSinks: a job's error goes where its executor can use it.
// Without workers a flush that fails once fails the Put that ran it — with
// a classified, transient error — and costs nothing else: the frozen
// memtable stays readable, the next freeze's flush drains it, nothing is
// retried behind the caller's back and the store never degrades. With a
// worker the same fault is the pool's: retried and absorbed, no Put sees it
// (TestBackgroundTransientRetryAbsorbed holds the counters to that).
func TestExecutorErrorSinks(t *testing.T) {
	for _, workers := range executors {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ffs := vfs.NewFail(vfs.NewMem())
			opts := bgOpts(ffs)
			opts.BackgroundWorkers = workers
			db, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			// Only a flush creates a table before the first merge.
			ffs.ArmPlan(vfs.FailPlan{Fail: 1, Kinds: vfs.OpCreate, Pattern: "*.sst"})
			failed := 0
			const n = 600
			for i := 0; i < n; i++ {
				err := db.Put(key(i), val(i))
				settle(db)
				if err == nil {
					continue
				}
				var ce *ClassifiedError
				if !errors.Is(err, vfs.ErrInjected) || !errors.As(err, &ce) || ce.Class != ClassTransient {
					t.Fatalf("put %d: %v; want the injected fault, classified transient", i, err)
				}
				if failed++; db.Metrics().ImmutableMemtables != 1 {
					t.Fatalf("the failed flush left %d frozen memtables, want its own", db.Metrics().ImmutableMemtables)
				}
			}
			m := db.Metrics()
			if !ffs.Failed() || m.Degraded || m.BackgroundErrors != 0 || m.ImmutableMemtables != 0 {
				t.Fatalf("fault injected: %v; metrics %+v", ffs.Failed(), m)
			}
			if workers == 0 && (failed != 1 || m.BackgroundRetries != 0) {
				t.Errorf("caller-run: %d puts failed, %d retries; want the one that ran the flush, and none", failed, m.BackgroundRetries)
			}
			if workers > 0 && (failed != 0 || m.BackgroundRetries != 1) {
				t.Errorf("pooled: %d puts failed, %d retries; want none, and one", failed, m.BackgroundRetries)
			}
			for i := 0; i < n; i++ {
				if got, err := db.Get(key(i)); err != nil || !bytes.Equal(got, val(i)) {
					t.Fatalf("key %d after the fault: %q, %v", i, got, err)
				}
			}
		})
	}
}
