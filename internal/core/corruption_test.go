package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"unikv/internal/sstable"
	"unikv/internal/vfs"
	"unikv/internal/vlog"
)

// corruptSeed loads a database, drains it into the sorted tier (so the
// on-disk state is sorted tables plus sealed value logs), closes it, and
// returns the populated memFS with the key count written.
func corruptSeed(t *testing.T) (vfs.FS, int) {
	t.Helper()
	fs := vfs.NewMem()
	db := openSmall(t, fs)
	const n = 300
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return fs, n
}

// flipByte inverts one byte of name in place.
func flipByte(t *testing.T, fs vfs.FS, name string, off int) {
	t.Helper()
	data, err := fs.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if off >= len(data) {
		t.Fatalf("%s is only %d bytes, cannot flip offset %d", name, len(data), off)
	}
	data[off] ^= 0xff
	if err := fs.WriteFile(name, data); err != nil {
		t.Fatal(err)
	}
}

// firstFile returns the first name under dir matching pattern.
func firstFile(t *testing.T, fs vfs.FS, dir, pattern string) string {
	t.Helper()
	names, err := fs.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if ok, _ := filepath.Match(pattern, name); ok {
			return filepath.Join(dir, name)
		}
	}
	t.Fatalf("no %s in %s (have %v)", pattern, dir, names)
	return ""
}

// TestCorruptTableClassifiedAndNotRetried flips one byte inside a sorted
// table's data region and asserts the full corruption contract: reads fail
// with a corruption-classified error (not transient, so nothing upstream
// keeps retrying it), VerifyIntegrity names the file, and a background job
// forced over the bad block degrades immediately — zero retries.
func TestCorruptTableClassifiedAndNotRetried(t *testing.T) {
	fs, n := corruptSeed(t)
	// Data blocks occupy the front of a table file; offset 20 lands inside
	// the first block's payload, leaving the index and footer intact so
	// Open still succeeds and the corruption surfaces on a data read.
	pdir := firstFile(t, fs, "db", "p[0-9]*")
	name := firstFile(t, fs, pdir, "*.sst")
	flipByte(t, fs, name, 20)

	db := openSmall(t, fs)
	// Sweep the whole keyspace: whichever keys live in the flipped block,
	// their reads must fail and the failure must classify as corruption.
	var readErr error
	for i := 0; i < n; i++ {
		if _, err := db.Get(key(i)); err != nil && err != ErrNotFound {
			readErr = err
			break
		}
	}
	if readErr == nil {
		_, readErr = db.Scan(key(0), nil, 0)
	}
	if readErr == nil {
		t.Fatal("no read error after corrupting a data block")
	}
	if !errors.Is(readErr, sstable.ErrCorruptTable) {
		t.Fatalf("read error %v, want ErrCorruptTable", readErr)
	}
	if Classify(readErr) != ClassCorruption {
		t.Fatalf("Classify(read error)=%s, want corruption", Classify(readErr))
	}

	// VerifyIntegrity pinpoints the file.
	verr := db.VerifyIntegrity()
	if verr == nil {
		t.Fatal("VerifyIntegrity passed on a corrupt table")
	}
	if Classify(verr) != ClassCorruption {
		t.Fatalf("Classify(VerifyIntegrity)=%s, want corruption", Classify(verr))
	}
	if !strings.Contains(verr.Error(), "sorted table") {
		t.Fatalf("VerifyIntegrity error %q does not identify the table tier", verr)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Background contract: a merge over the corrupt run fails its job with
	// a corruption class — the scheduler must quarantine the owning
	// partition on the first attempt instead of retrying bytes that cannot
	// heal, and must NOT degrade the whole database (the damage is scoped
	// to one partition's files).
	db2, err := Open("db", bgOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	var werr error
	for i := 0; i < 50000 && werr == nil; i++ {
		// Cycle the seeded keyspace so writes keep landing in the corrupt
		// partition's range after it quarantines.
		if err := db2.Put(key(i%n), val(i)); err != nil {
			werr = err
		}
	}
	m := waitMetrics(db2, func(m StatsSnapshot) bool { return m.QuarantinedPartitions > 0 })
	if m.QuarantinedPartitions == 0 {
		t.Fatal("background merge over a corrupt table never quarantined its partition")
	}
	if m.Degraded {
		t.Fatalf("whole DB degraded (%q); partition-scoped corruption must quarantine, not degrade", m.DegradedCause)
	}
	if werr != nil && !errors.Is(werr, ErrPartitionQuarantined) {
		t.Fatalf("write error %v, want ErrPartitionQuarantined", werr)
	}
	// A write routed into the quarantined range must fail with the scoped
	// error (the loop above may have stopped for that reason already).
	if werr == nil {
		for i := 0; i < n; i++ {
			if err := db2.Put(key(i), val(i)); err != nil {
				werr = err
				break
			}
		}
		if !errors.Is(werr, ErrPartitionQuarantined) {
			t.Fatalf("write into quarantined range got %v, want ErrPartitionQuarantined", werr)
		}
	}
	if m.BackgroundRetries != 0 {
		t.Fatalf("BackgroundRetries=%d, want 0 (corruption must never be retried)", m.BackgroundRetries)
	}
	if m.BackgroundErrors != 1 {
		t.Fatalf("BackgroundErrors=%d, want exactly 1", m.BackgroundErrors)
	}
	// Reads on the quarantined partition still serve the intact blocks.
	if _, err := db2.Get(key(0)); err != nil && err != ErrNotFound && !errors.Is(err, sstable.ErrCorruptTable) {
		t.Fatalf("read on quarantined partition: %v", err)
	}
}

// TestCorruptVlogClassified flips one byte mid-way through a sealed value
// log: the owning record's checksum no longer matches, so value reads fail
// with a corruption-classified error and VerifyIntegrity names the log.
func TestCorruptVlogClassified(t *testing.T) {
	fs, n := corruptSeed(t)
	name := firstFile(t, fs, filepath.Join("db", "vlog"), "vlog-*.log")
	data, err := fs.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, fs, name, len(data)/2)

	db := openSmall(t, fs)
	defer db.Close()
	var readErr error
	for i := 0; i < n; i++ {
		if _, err := db.Get(key(i)); err != nil && err != ErrNotFound {
			readErr = err
			break
		}
	}
	if readErr == nil {
		t.Fatal("no read error after corrupting a value log")
	}
	if !errors.Is(readErr, vlog.ErrBadPointer) {
		t.Fatalf("read error %v, want ErrBadPointer", readErr)
	}
	if Classify(readErr) != ClassCorruption {
		t.Fatalf("Classify(read error)=%s, want corruption", Classify(readErr))
	}

	verr := db.VerifyIntegrity()
	if verr == nil {
		t.Fatal("VerifyIntegrity passed on a corrupt value log")
	}
	if !errors.Is(verr, vlog.ErrCorrupt) {
		t.Fatalf("VerifyIntegrity error %v, want vlog.ErrCorrupt", verr)
	}
	if Classify(verr) != ClassCorruption {
		t.Fatalf("Classify(VerifyIntegrity)=%s, want corruption", Classify(verr))
	}
	logNum, ok := vlog.ParseLogName(filepath.Base(name))
	if !ok {
		t.Fatalf("unparseable log name %s", name)
	}
	if want := fmt.Sprintf("value log %d", logNum); !strings.Contains(verr.Error(), want) {
		t.Fatalf("VerifyIntegrity error %q does not name %q", verr, want)
	}
}
