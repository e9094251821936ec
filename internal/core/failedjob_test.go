package core

import (
	"bytes"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"unikv/internal/vfs"
	"unikv/internal/vlog"
)

// handleFS counts, per file name, the handles Create returned that have
// not been closed yet.
type handleFS struct {
	vfs.FS
	mu   sync.Mutex
	open map[string]int
}

type handleFile struct {
	vfs.File
	fs     *handleFS
	name   string
	closed sync.Once
}

func (fs *handleFS) Create(name string) (vfs.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	fs.mu.Lock()
	fs.open[name]++
	fs.mu.Unlock()
	return &handleFile{File: f, fs: fs, name: name}, nil
}

func (f *handleFile) Close() error {
	f.closed.Do(func() {
		f.fs.mu.Lock()
		f.fs.open[f.name]--
		f.fs.mu.Unlock()
	})
	return f.File.Close()
}

// written returns the tables and value logs with a handle from Create still
// open, but the active log: the files a job writes.
func (fs *handleFS) written(db *DB) []string {
	active, _ := db.vl.ActiveNum()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var names []string
	for name, n := range fs.open {
		ext := filepath.Ext(name)
		if n > 0 && (ext == ".sst" || ext == ".log" && filepath.Base(name) != vlog.LogName(active)) {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	return names
}

// TestFailedJobClosesItsFiles fails each job that writes tables or a value
// log once, inside the job, on the zero-worker executor. Once the job's
// error is back, no table or dedicated log it created may still be open: the
// job's end removes them, and every retry of a job that kept them open
// would leak another handle. The store then reopens with every acknowledged
// key.
func TestFailedJobClosesItsFiles(t *testing.T) {
	// structural runs a structural job body on the partition's pinned
	// version, as the scheduler does.
	structural := func(body func(*partition, *version) error) func(*DB, *partition) error {
		return func(_ *DB, p *partition) error {
			p.maintMu.Lock()
			defer p.maintMu.Unlock()
			v := p.acquire()
			defer v.release()
			return body(p, v)
		}
	}
	sstWrite := vfs.FailPlan{Fail: 1, Kinds: vfs.OpWrite, Pattern: "*.sst"}
	jobs := []struct {
		name string
		plan vfs.FailPlan
		run  func(*DB, *partition) error
	}{
		{"flush", sstWrite, func(db *DB, _ *partition) error { return db.Flush() }},
		{"scan-merge", sstWrite, structural((*partition).scanMerge)},
		{"merge", sstWrite, structural((*partition).merge)},
		// A source log read fails a few values into the rewrite, with the
		// rewrite log and the first new table open.
		{"gc", vfs.FailPlan{Skip: 20, Fail: 1, Kinds: vfs.OpReadAt, Pattern: "*.log"}, structural((*partition).gc)},
		// The rewrite log's one write, in its Finish, fails.
		{"gc-finish", vfs.FailPlan{Fail: 1, Kinds: vfs.OpWrite, Pattern: "*.log"}, structural((*partition).gc)},
		// The split first flushes the memtable — one table, one write — and
		// fails writing its first half.
		{"split", vfs.FailPlan{Skip: 1, Fail: 1, Kinds: vfs.OpWrite, Pattern: "*.sst"}, func(db *DB, p *partition) error {
			db.opts.PartitionSizeLimit = 1
			defer func() { db.opts.PartitionSizeLimit = 1 << 40 }()
			return db.splitPartition(p)
		}},
	}
	for _, job := range jobs {
		t.Run(job.name, func(t *testing.T) {
			inner := vfs.NewMem()
			ffs := vfs.NewFail(inner)
			hfs := &handleFS{FS: ffs, open: map[string]int{}}
			opts := smallOpts(hfs)
			// Nothing but a flush runs unless the test calls it.
			opts.UnsortedLimit, opts.ScanMergeLimit, opts.PartitionSizeLimit, opts.GCRatio = 1<<40, 1<<30, 1<<40, 1e9
			db, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { db.Close() }()
			// Two merged rounds give the SortedStore pointers into several
			// sealed logs; two flushed ones leave unsorted tables above them.
			acked := map[string][]byte{}
			for round := 0; round < 4; round++ {
				for i := 0; i < 300; i++ {
					v := val(i + 1000*round)
					if err := db.Put(key(i), v); err != nil {
						t.Fatal(err)
					}
					acked[string(key(i))] = v
				}
				step := db.Flush
				if round < 2 {
					step = db.CompactAll
				}
				if err := step(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 50; i++ { // a memtable for the flush
				v := val(i + 9000)
				if err := db.Put(key(i), v); err != nil {
					t.Fatal(err)
				}
				acked[string(key(i))] = v
			}
			p := db.partitions()[0]
			if v := p.cur.Load(); v.unsTables < 2 || v.srt.NumTables() == 0 || len(v.logs) < 2 {
				t.Fatalf("setup: %d unsorted tables, %d sorted, %d logs", v.unsTables, v.srt.NumTables(), len(v.logs))
			}
			if open := hfs.written(db); len(open) > 0 {
				t.Fatalf("before the job: %v open", open)
			}

			ffs.ArmPlan(job.plan)
			err = job.run(db, p)
			injected := ffs.InjectedOps()
			ffs.Disarm()
			if err == nil || injected == 0 {
				t.Fatalf("the %s returned %v with %d faults injected; want it failed by one", job.name, err, injected)
			}
			if open := hfs.written(db); len(open) > 0 {
				t.Errorf("after the failed %s (%v), still open: %v", job.name, err, open)
			}

			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if db, err = Open("db", opts); err != nil {
				t.Fatal(err)
			}
			for k, want := range acked {
				if got, err := db.Get([]byte(k)); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("after reopen, %s: %d bytes, %v; want %d bytes", k, len(got), err, len(want))
				}
			}
			if err := db.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
			checkFileSet(t, db)
		})
	}
}
