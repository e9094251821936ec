package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"unikv/internal/vfs"
)

// waitMetrics polls Metrics until cond is satisfied or the deadline
// passes, returning the last snapshot either way.
func waitMetrics(db *DB, cond func(StatsSnapshot) bool) StatsSnapshot {
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := db.Metrics()
		if cond(m) || time.Now().After(deadline) {
			return m
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBackgroundTransientRetryAbsorbed is the regression test for the old
// fail-on-first-error scheduler: a transient fault that clears after two
// attempts must be absorbed by the retry loop — counted in
// BackgroundRetries, absent from BackgroundErrors, and never tripping
// degraded mode.
func TestBackgroundTransientRetryAbsorbed(t *testing.T) {
	inner := vfs.NewMem()
	ffs := vfs.NewFail(inner)
	db, err := Open("db", bgOpts(ffs))
	if err != nil {
		t.Fatal(err)
	}
	// In background mode every .sst write happens in a worker (flushes,
	// merges), so this targets exactly the retryable job path. Two matched
	// writes fail, then the "disk" recovers.
	ffs.ArmPlan(vfs.FailPlan{Fail: 2, Kinds: vfs.OpWrite, Pattern: "*.sst"})

	const n = 600
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatalf("Put(%d) during transient fault: %v", i, err)
		}
	}
	m := waitMetrics(db, func(m StatsSnapshot) bool { return m.BackgroundRetries >= 1 && m.Flushes >= 1 })
	ffs.Disarm()
	if !ffs.Failed() {
		t.Skip("workload finished before any fault was injected; sizing changed")
	}
	if m.BackgroundRetries < 1 {
		t.Fatalf("BackgroundRetries=%d, want >=1 (fault was injected but never retried)", m.BackgroundRetries)
	}
	if m.BackgroundErrors != 0 {
		t.Fatalf("BackgroundErrors=%d, want 0 (transient fault must not count as a job failure)", m.BackgroundErrors)
	}
	if m.Degraded {
		t.Fatalf("degraded after a recoverable fault: %s", m.DegradedCause)
	}
	// The database is fully live: reads see everything, writes proceed.
	for i := 0; i < n; i++ {
		got, err := db.Get(key(i))
		if err != nil || !bytes.Equal(got, val(i)) {
			t.Fatalf("key %d after absorbed fault: %q, %v", i, got, err)
		}
	}
	if err := db.Put([]byte("post-fault"), []byte("ok")); err != nil {
		t.Fatalf("Put after absorbed fault: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBackgroundStickyFaultDegrades drives a background job into a
// persistent write fault: retries are attempted, exhausted, and the
// database enters degraded read-only mode — writes fail with ErrDegraded,
// reads keep serving, and a reopen on a healthy disk fully recovers.
func TestBackgroundStickyFaultDegrades(t *testing.T) {
	inner := vfs.NewMem()
	ffs := vfs.NewFail(inner)
	db, err := Open("db", bgOpts(ffs))
	if err != nil {
		t.Fatal(err)
	}
	ffs.ArmPlan(vfs.FailPlan{Fail: -1, Kinds: vfs.OpWrite, Pattern: "*.sst"})

	acked := 0
	var writeErr error
	for i := 0; i < 50000; i++ {
		if writeErr = db.Put(key(i), val(i)); writeErr != nil {
			break
		}
		acked = i + 1
	}
	if writeErr == nil {
		t.Fatal("writes never failed under a sticky background fault")
	}
	if !errors.Is(writeErr, ErrDegraded) {
		t.Fatalf("write error %v, want ErrDegraded", writeErr)
	}
	if Classify(writeErr) != ClassFatal {
		t.Fatalf("Classify(write error)=%s, want fatal", Classify(writeErr))
	}

	m := db.Metrics()
	if !m.Degraded || m.DegradedSince == 0 {
		t.Fatalf("metrics not degraded: %+v", m)
	}
	if !strings.Contains(m.DegradedCause, "flush") {
		t.Fatalf("DegradedCause=%q, want the failed job named", m.DegradedCause)
	}
	if !strings.Contains(m.DegradedCause, "retries exhausted") {
		t.Fatalf("DegradedCause=%q, want retry exhaustion recorded", m.DegradedCause)
	}
	if m.BackgroundErrors < 1 {
		t.Fatalf("BackgroundErrors=%d, want >=1", m.BackgroundErrors)
	}
	if m.BackgroundRetries < 1 {
		t.Fatalf("BackgroundRetries=%d, want >=1 (transient class must be retried before degrading)", m.BackgroundRetries)
	}

	// Degraded is read-only, not dead: point reads and scans still serve.
	if got, err := db.Get(key(0)); err != nil || !bytes.Equal(got, val(0)) {
		t.Fatalf("Get while degraded: %q, %v", got, err)
	}
	if _, err := db.Scan(key(0), key(10), 0); err != nil {
		t.Fatalf("Scan while degraded: %v", err)
	}
	// Every write-shaped entry point refuses.
	if err := db.Delete(key(0)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Delete while degraded: %v", err)
	}
	b := NewBatch()
	b.Put([]byte("k"), []byte("v"))
	if err := db.ApplyBatch(b); !errors.Is(err, ErrDegraded) {
		t.Fatalf("ApplyBatch while degraded: %v", err)
	}
	if err := db.Flush(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Flush while degraded: %v", err)
	}
	if err := db.CompactAll(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("CompactAll while degraded: %v", err)
	}

	// Recovery path: fix the disk, reopen, and the mode clears with no
	// acked data lost (the WAL still holds what the failed flushes
	// couldn't persist).
	ffs.Disarm()
	if err := db.Close(); err != nil {
		t.Fatalf("Close of degraded db: %v", err)
	}
	db2, err := Open("db", smallOpts(inner))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if m := db2.Metrics(); m.Degraded {
		t.Fatalf("degraded mode survived reopen: %s", m.DegradedCause)
	}
	for i := 0; i < acked; i++ {
		got, err := db2.Get(key(i))
		if err != nil || !bytes.Equal(got, val(i)) {
			t.Fatalf("acked key %d (of %d) lost across degrade+reopen: %v", i, acked, err)
		}
	}
	if err := db2.Put([]byte("post-recovery"), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := db2.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity after recovery: %v", err)
	}
}
