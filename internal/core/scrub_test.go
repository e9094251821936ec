package core

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"unikv/internal/manifest"
	"unikv/internal/vfs"
	"unikv/internal/vlog"
)

// scrubOpts enables a fast, unthrottled background scrub on top of the
// background-worker configuration.
func scrubOpts(fs vfs.FS) Options {
	opts := bgOpts(fs)
	opts.ScrubInterval = 5 * time.Millisecond
	opts.ScrubBytesPerSec = -1 // unlimited: the tests want detection latency
	return opts
}

// bigSeed loads enough keys through background mode to force partition
// splits, drains to the sorted tier, and closes — a multi-partition
// on-disk state for quarantine-scoping tests. Returns the key count.
func bigSeed(t *testing.T, fs vfs.FS) int {
	t.Helper()
	db, err := Open("db", bgOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if db.Metrics().Partitions < 2 {
		t.Fatalf("seed produced %d partitions, need >= 2 for scoping asserts", db.Metrics().Partitions)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return n
}

// probeWrites tries a write for every seeded key and buckets the outcomes:
// quarantined-range failures vs accepted writes. Any other error fails the
// test.
func probeWrites(t *testing.T, db *DB, n int) (quarantined, accepted int) {
	t.Helper()
	for i := 0; i < n; i++ {
		err := db.Put(key(i), val(i))
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, ErrPartitionQuarantined):
			quarantined++
		default:
			t.Fatalf("probe write %d: %v", i, err)
		}
	}
	return quarantined, accepted
}

// TestScrubDetectsCorruptTableQuarantinesOnePartition corrupts one table
// in a multi-partition database and lets the background scrub find it with
// no foreground read ever touching the bad block: exactly the owning
// partition must quarantine (its writes fail scoped), every other
// partition keeps accepting reads AND writes, and the DB never degrades.
func TestScrubDetectsCorruptTableQuarantinesOnePartition(t *testing.T) {
	// On a store without workers the scrub driver runs the table scrub
	// itself, through the same retry and escalation as a worker.
	for _, workers := range executors {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { scrubQuarantinesOnePartition(t, workers) })
	}
}

func scrubQuarantinesOnePartition(t *testing.T, workers int) {
	leakCheck(t)
	fs := vfs.NewMem()
	n := bigSeed(t, fs)
	pdir := firstFile(t, fs, "db", "p[0-9]*")
	name := firstFile(t, fs, pdir, "*.sst")
	flipByte(t, fs, name, 20)

	opts := scrubOpts(fs)
	opts.BackgroundWorkers = workers
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	m := waitMetrics(db, func(m StatsSnapshot) bool { return m.QuarantinedPartitions > 0 })
	if m.QuarantinedPartitions == 0 {
		t.Fatalf("scrub never quarantined the corrupt partition (passes=%d corruptions=%d)",
			m.ScrubPasses, m.ScrubCorruptions)
	}
	if m.ScrubCorruptions == 0 {
		t.Fatal("quarantine without a counted scrub corruption")
	}
	if m.Degraded {
		t.Fatalf("whole DB degraded (%q); scrub corruption must quarantine only the owner", m.DegradedCause)
	}
	quarantined, accepted := probeWrites(t, db, n)
	if quarantined == 0 {
		t.Fatal("no write hit the quarantined range")
	}
	if accepted == 0 {
		t.Fatal("every write failed: quarantine was not scoped to the corrupt partition")
	}
	// Reads outside the corrupt block still serve on every partition.
	good := 0
	for i := 0; i < n; i++ {
		if v, err := db.Get(key(i)); err == nil && bytes.Equal(v, val(i)) {
			good++
		}
	}
	if good == 0 {
		t.Fatal("no key readable after a single-table corruption")
	}
}

// TestScrubDetectsCorruptVlogQuarantinesOwners corrupts one sealed value
// log: the scrub must quarantine exactly the partitions holding live
// pointers into that log (computed from the per-partition log sets), and
// leave the database undegraded.
func TestScrubDetectsCorruptVlogQuarantinesOwners(t *testing.T) {
	leakCheck(t)
	fs := vfs.NewMem()
	n := bigSeed(t, fs)

	// The blast radius of a shared log is its owner set — the per-partition
	// log lists persisted in the manifest. Pick the log with the fewest
	// owners so the "others keep serving" half of the contract is testable.
	man, err := manifest.Open(fs, "db")
	if err != nil {
		t.Fatal(err)
	}
	state := man.State()
	man.Close()
	owners := map[uint32]int{}
	for _, p := range state.SortedPartitions() {
		for _, l := range p.Logs {
			owners[l]++
		}
	}
	var target uint32
	best := 1 << 30
	for l, c := range owners {
		if c < best {
			target, best = l, c
		}
	}
	if best >= len(state.Partitions) {
		t.Fatalf("every log owned by all %d partitions; seed cannot exercise scoping", len(state.Partitions))
	}
	name := filepath.Join("db", "vlog", vlog.LogName(target))
	data, err := fs.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, fs, name, len(data)/2)

	db, err := Open("db", scrubOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	m := waitMetrics(db, func(m StatsSnapshot) bool { return m.QuarantinedPartitions > 0 })
	if m.QuarantinedPartitions == 0 {
		t.Fatalf("scrub never quarantined the corrupt log's owners (passes=%d corruptions=%d)",
			m.ScrubPasses, m.ScrubCorruptions)
	}
	if m.Degraded {
		t.Fatalf("whole DB degraded (%q); vlog corruption must quarantine only pointer holders", m.DegradedCause)
	}
	if m.QuarantinedPartitions != best {
		t.Fatalf("QuarantinedPartitions=%d, want exactly the %d owners of log %d",
			m.QuarantinedPartitions, best, target)
	}
	if quarantined, accepted := probeWrites(t, db, n); quarantined == 0 || accepted == 0 {
		t.Fatalf("quarantine scope wrong: %d writes rejected, %d accepted", quarantined, accepted)
	}
}

// TestScrubCleanDatabaseCountsAndStops runs the scrub over an intact
// database: passes, verified tables/logs, and bytes advance; corruption
// and quarantine counters stay zero; Close joins the scrubber without
// leaking its goroutine.
func TestScrubCleanDatabaseCountsAndStops(t *testing.T) {
	leakCheck(t)
	fs := vfs.NewMem()
	corruptSeedInto(t, fs)
	db, err := Open("db", scrubOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	m := waitMetrics(db, func(m StatsSnapshot) bool {
		return m.ScrubPasses >= 2 && m.ScrubbedTables > 0 && m.ScrubbedLogs > 0
	})
	if m.ScrubPasses < 2 || m.ScrubbedTables == 0 || m.ScrubbedLogs == 0 || m.ScrubbedBytes == 0 {
		t.Fatalf("scrub counters did not advance: %+v", m)
	}
	if m.ScrubCorruptions != 0 || m.QuarantinedPartitions != 0 {
		t.Fatalf("clean database reported corruption: corruptions=%d quarantined=%d",
			m.ScrubCorruptions, m.QuarantinedPartitions)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// corruptSeedInto is corruptSeed against a caller-provided FS.
func corruptSeedInto(t *testing.T, fs vfs.FS) int {
	t.Helper()
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
	return n
}

// TestScrubDisabledIsZeroChange: with ScrubInterval unset nothing scrubs —
// no scrubber goroutine, no counters, no behavior difference.
func TestScrubDisabledIsZeroChange(t *testing.T) {
	leakCheck(t)
	fs := vfs.NewMem()
	corruptSeedInto(t, fs)
	db, err := Open("db", bgOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.scrub != nil {
		t.Fatal("scrubber running with ScrubInterval=0")
	}
	for i := 0; i < 100; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(30 * time.Millisecond)
	if m := db.Metrics(); m.ScrubPasses != 0 || m.ScrubbedBytes != 0 {
		t.Fatalf("scrub ran while disabled: %+v", m)
	}
}

// TestForegroundReadCorruptionQuarantines: with scrubbing off, a foreground
// Get that trips over a corrupt block must quarantine the partition it
// routed to — the read error doubles as the detection signal.
func TestForegroundReadCorruptionQuarantines(t *testing.T) {
	fs := vfs.NewMem()
	n := bigSeed(t, fs)
	pdir := firstFile(t, fs, "db", "p[0-9]*")
	name := firstFile(t, fs, pdir, "*.sst")
	flipByte(t, fs, name, 20)

	db, err := Open("db", bgOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var readErr error
	for i := 0; i < n; i++ {
		if _, err := db.Get(key(i)); err != nil && err != ErrNotFound {
			readErr = err
			break
		}
	}
	if readErr == nil {
		t.Skip("no read reached the corrupt block (cache served everything)")
	}
	if Classify(readErr) != ClassCorruption {
		t.Fatalf("read error %v classified %s, want corruption", readErr, Classify(readErr))
	}
	m := db.Metrics()
	if m.QuarantinedPartitions != 1 {
		t.Fatalf("QuarantinedPartitions=%d after a corrupt foreground read, want 1", m.QuarantinedPartitions)
	}
	if m.Degraded {
		t.Fatal("foreground read corruption degraded the whole DB")
	}
	if quarantined, accepted := probeWrites(t, db, n); quarantined == 0 || accepted == 0 {
		t.Fatalf("quarantine scope wrong: %d writes rejected, %d accepted", quarantined, accepted)
	}
}

// TestScrubSnapshotGCStorm races the scrub against an open snapshot and a
// flush/merge/split/GC storm: the pinned reads must stay byte-identical
// throughout, the scrub must never report corruption on healthy data, and
// teardown must release every table ref and log ref (Close fails on a
// refcount leak because the files would still be held).
func TestScrubSnapshotGCStorm(t *testing.T) {
	leakCheck(t)
	fs := vfs.NewMem()
	opts := scrubOpts(fs)
	opts.GCRatio = 0.01 // aggressive GC so log rewrites churn under the scrub
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := db.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // overwrite churn: creates garbage for GC, forces merges
		defer wg.Done()
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			i := round % n
			if err := db.Put(key(i), []byte(fmt.Sprintf("new-%d-%d", round, i))); err != nil {
				// The storm runs until stop; a quarantine here would be a bug
				// (all data is healthy), so surface it.
				t.Errorf("storm write: %v", err)
				return
			}
			if round%97 == 0 {
				_ = db.Delete(key((round * 7) % n))
			}
		}
	}()
	go func() { // snapshot reader: pinned view must never move
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			i := time.Now().Nanosecond() % n
			v, err := snap.Get(key(i))
			if err != nil {
				t.Errorf("snapshot get under storm: %v", err)
				return
			}
			if !bytes.Equal(v, val(i)) {
				t.Errorf("snapshot read changed under storm: key %d", i)
				return
			}
		}
	}()
	// Let the storm overlap several scrub passes.
	deadline := time.Now().Add(1500 * time.Millisecond)
	for time.Now().Before(deadline) {
		if m := db.Metrics(); m.ScrubPasses >= 5 && m.GCs > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	m := db.Metrics()
	if m.ScrubCorruptions != 0 || m.QuarantinedPartitions != 0 || m.Degraded {
		t.Fatalf("scrub flagged healthy data under storm: %+v", m)
	}
	// Full-range snapshot scan stays byte-identical too.
	kvs, err := snap.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != n {
		t.Fatalf("snapshot scan returned %d keys, want %d", len(kvs), n)
	}
	for i, kv := range kvs {
		if !bytes.Equal(kv.Value, val(i)) {
			t.Fatalf("snapshot scan value drifted at key %d", i)
		}
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	// Close succeeds only if every scrub pin was released (a leaked table
	// ref or log ref keeps files alive and trips the leak checks).
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
