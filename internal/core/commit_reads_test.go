package core

import (
	"bytes"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"unikv/internal/vfs"
)

// TestCommitReadsNoTable holds a scan merge, then a merge, between its build
// and its commit on a store with a worker pool, flushes tables behind each
// while it is held, and counts the table reads of the commit: none. The
// UnsortedStore a commit installs — hash index and sorted view included — is
// derived in memory from the current one and what the job collected while
// writing. Every key then reads back through Get and Scan, among them keys
// whose newest version is in a table flushed behind the scan merge and an
// older one in the table it wrote.
func TestCommitReadsNoTable(t *testing.T) {
	var tableReads atomic.Int64
	fs := &probeFS{FS: vfs.NewMem(), onIO: func(op, _ string) {
		if op == "ReadAt" {
			tableReads.Add(1)
		}
	}}
	opts := smallOpts(fs)
	opts.BackgroundWorkers = 1
	opts.exp.DisablePartitioning = true
	// A table per Flush, and no trigger fires: the test runs every
	// structural job itself.
	opts.MemtableSize, opts.UnsortedLimit, opts.ScanMergeLimit, opts.GCRatio = 1<<20, 1<<40, 1<<20, 1e9
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	p := db.partitions()[0]

	model := map[string]string{}
	write := func(round, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			k, v := key(i), fmt.Sprintf("round-%d-%d", round, i)
			if err := db.Put(k, []byte(v)); err != nil {
				t.Fatal(err)
			}
			model[string(k)] = v
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	check := func(what string) {
		t.Helper()
		keys := make([]string, 0, len(model))
		for k, v := range model {
			if got, err := db.Get([]byte(k)); err != nil || string(got) != v {
				t.Fatalf("%s: Get(%s) = %q, %v; want %q", what, k, got, err, v)
			}
			keys = append(keys, k)
		}
		sort.Strings(keys)
		kvs, err := db.Scan(nil, nil, len(keys)+1)
		if err != nil || len(kvs) != len(keys) {
			t.Fatalf("%s: Scan returned %d pairs, %v; want %d", what, len(kvs), err, len(keys))
		}
		for i, kv := range kvs {
			if string(kv.Key) != keys[i] || !bytes.Equal(kv.Value, []byte(model[keys[i]])) {
				t.Fatalf("%s: Scan[%d] = %s=%q; want %s=%q", what, i, kv.Key, kv.Value, keys[i], model[keys[i]])
			}
		}
	}
	// hold runs job on p, holds it between build and commit while behind
	// flushes tables beside it, and returns the table reads of the commit.
	hold := func(name string, job func(*version) error, behind func()) int64 {
		t.Helper()
		held, release := make(chan struct{}), make(chan struct{})
		db.testHookMergeBuild = func(*partition) {
			close(held)
			<-release
		}
		defer func() { db.testHookMergeBuild = nil }()
		done := make(chan error, 1)
		go func() {
			p.maintMu.Lock()
			defer p.maintMu.Unlock()
			v := p.acquire()
			defer v.release()
			done <- job(v)
		}()
		select {
		case <-held:
		case err := <-done:
			t.Fatalf("%s ended without reaching its commit: %v", name, err)
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never reached its commit", name)
		}
		behind()
		waitIdle(t, db)
		before := tableReads.Load()
		close(release)
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return tableReads.Load() - before
	}

	for round := 0; round < 4; round++ {
		write(round, round*50, round*50+120)
	}
	check("before the scan merge")
	tables := p.cur.Load().unsTables
	reads := hold("scan merge", p.scanMerge, func() {
		// Overwrite keys the scan merge holds, and add new ones.
		write(10, 30, 90)
		write(11, 300, 340)
		write(12, 60, 70)
	})
	if reads != 0 {
		t.Errorf("the scan merge's commit read tables %d times", reads)
	}
	if got := p.cur.Load().unsTables; got != 4 || tables != 4 {
		t.Fatalf("%d unsorted tables before the scan merge and %d after; want 4 and 1+3", tables, got)
	}
	check("after the scan merge")

	reads = hold("merge", p.merge, func() {
		write(20, 0, 40)
		write(21, 320, 400)
	})
	if reads != 0 {
		t.Errorf("the merge's commit read tables %d times", reads)
	}
	if got := p.cur.Load().unsTables; got != 2 {
		t.Fatalf("%d unsorted tables after the merge; want the 2 flushed behind it", got)
	}
	check("after the merge")
	if m := db.Metrics(); m.ScanMerges != 1 || m.Merges != 1 {
		t.Fatalf("scan merges %d, merges %d; want 1 each", m.ScanMerges, m.Merges)
	}
	checkFileSet(t, db)
}
