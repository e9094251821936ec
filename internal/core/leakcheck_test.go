package core

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"unikv/internal/vfs"
	"unikv/internal/vlog"
)

// leakCheck snapshots the goroutine count and, when the test (including its
// deferred Closes) finishes, verifies the count returns to that baseline.
// Close is supposed to join every background worker, the throttle ticker,
// and the snapshot registry's helpers; a straggler here means a Close path
// forgot one, which -race alone never reports. Shutdown is asynchronous
// from the runtime's point of view (a worker that returned from its loop
// may not have exited its goroutine yet), so the check polls briefly
// before declaring a leak.
func leakCheck(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		n := runtime.NumGoroutine()
		for n > base && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > base {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Errorf("goroutine leak: %d running after cleanup, baseline %d\n%s", n, base, buf)
		}
	})
}

// TestOpenCloseGoroutineHygiene cycles a background-mode database through
// open/load/close several times: every cycle must return the process to
// its baseline goroutine count, or repeated opens (a long test run, an
// embedding application reopening after errors) would accumulate workers.
func TestOpenCloseGoroutineHygiene(t *testing.T) {
	leakCheck(t)
	fs := vfs.NewMem()
	for cycle := 0; cycle < 3; cycle++ {
		db, err := Open("db", bgOpts(fs))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			if err := db.Put(key(i), val(i+cycle)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// waitIdle waits until the worker pool has nothing queued or running and no
// frozen memtable is left to flush.
func waitIdle(t testing.TB, db *DB) {
	t.Helper()
	m := waitMetrics(db, func(m StatsSnapshot) bool { return m.PendingJobs == 0 && m.ImmutableMemtables == 0 })
	if m.PendingJobs != 0 || m.ImmutableMemtables != 0 {
		t.Fatalf("maintenance never settled: %d jobs pending, %d frozen memtables", m.PendingJobs, m.ImmutableMemtables)
	}
}

// checkFileSet is the file-level leak check: with maintenance idle and no
// reader or snapshot pinning an old version, the files on disk are exactly
// the ones the manifest names — every table and hash checkpoint, each
// partition's one live WAL, the referenced value logs plus the active one.
// A surplus file is one some version failed to give back (or gave back
// without its deletion being arranged); a missing one was deleted while the
// current version still names it.
func checkFileSet(t testing.TB, db *DB) {
	t.Helper()
	state := db.man.State()
	logs := map[string]bool{}
	if n, ok := db.vl.ActiveNum(); ok {
		logs[vlog.LogName(n)] = true
	}
	for id, meta := range state.Partitions {
		want := map[string]bool{}
		for _, tm := range append(slices.Clone(meta.Unsorted), meta.Sorted...) {
			want[fmt.Sprintf("%08d.sst", tm.FileNum)] = true
		}
		if meta.HashCkpt != 0 {
			want[fmt.Sprintf("%08d.ckpt", meta.HashCkpt)] = true
		}
		if meta.WALNum != 0 {
			want[fmt.Sprintf("%08d.wal", meta.WALNum)] = true
		}
		for _, n := range meta.Logs {
			logs[vlog.LogName(n)] = true
		}
		compareDir(t, db, db.partDir(id), want)
	}
	compareDir(t, db, db.vlogDir(), logs)
}

func compareDir(t testing.TB, db *DB, dir string, want map[string]bool) {
	t.Helper()
	names, err := db.fs.List(dir)
	if err != nil {
		t.Fatalf("list %s: %v", dir, err)
	}
	have := map[string]bool{}
	for _, name := range names {
		have[filepath.Base(name)] = true
	}
	var surplus, missing []string
	for name := range have {
		if !want[name] {
			surplus = append(surplus, name)
		}
	}
	for name := range want {
		if !have[name] {
			missing = append(missing, name)
		}
	}
	if len(surplus)+len(missing) > 0 {
		slices.Sort(surplus)
		slices.Sort(missing)
		t.Errorf("%s: on disk but not in the manifest: [%s]; in the manifest but not on disk: [%s]",
			dir, strings.Join(surplus, " "), strings.Join(missing, " "))
	}
}
