package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"unikv/internal/vfs"
)

// The corruption sweep is the campaign analogue of the fault sweep
// (`make corruption-sweep`): instead of failing operations it damages
// bytes, at several offsets per file class, and asserts the full
// detect → quarantine → repair → audit pipeline for every point:
//
//  1. the damage is detected (by the background scrub or a foreground
//     read) and quarantines only the affected partitions — the database
//     never enters whole-DB degraded mode for file-scoped damage;
//  2. offline Repair salvages the directory with an explicit loss report;
//  3. the repaired database reopens, passes VerifyIntegrity, and serves
//     every surviving key byte-identical — no silent wrong answers.

// sweepPoint places one persistent flip: a file class and where in the
// file to flip (fraction of its size, clamped inside).
type sweepPoint struct {
	class string // "sst" | "vlog"
	frac  float64
}

func (p sweepPoint) String() string { return fmt.Sprintf("%s@%.2f", p.class, p.frac) }

// TestCorruptionSweepPersistent flips a byte on disk at each sweep point
// (DB closed), then drives detection with the scrub and repairs.
func TestCorruptionSweepPersistent(t *testing.T) {
	points := []sweepPoint{
		{"sst", 0.05}, {"sst", 0.5}, {"sst", 0.95},
		{"vlog", 0.05}, {"vlog", 0.5}, {"vlog", 0.95},
	}
	for _, pt := range points {
		pt := pt
		t.Run(pt.String(), func(t *testing.T) {
			fs := vfs.NewMem()
			n := bigSeed(t, fs)
			var name string
			switch pt.class {
			case "sst":
				pdir := firstFile(t, fs, "db", "p[0-9]*")
				name = firstFile(t, fs, pdir, "*.sst")
			case "vlog":
				name = firstFile(t, fs, filepath.Join("db", "vlog"), "vlog-*.log")
			}
			data, err := fs.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			off := int(float64(len(data)) * pt.frac)
			if off >= len(data) {
				off = len(data) - 1
			}
			flipByte(t, fs, name, off)

			// Phase 1: detection. The scrub must find the damage without any
			// foreground read touching it, and scope the quarantine.
			db, err := Open("db", scrubOpts(fs))
			if err != nil {
				// A flip in a table footer/index can fail recovery itself;
				// that is detection too — skip straight to repair.
				if Classify(err) != ClassCorruption {
					t.Fatalf("open after %s flip: %v", pt, err)
				}
			} else {
				m := waitMetrics(db, func(m StatsSnapshot) bool {
					return m.ScrubCorruptions > 0
				})
				if m.ScrubCorruptions == 0 {
					t.Fatalf("scrub never detected the %s flip (passes=%d)", pt, m.ScrubPasses)
				}
				m = waitMetrics(db, func(m StatsSnapshot) bool { return m.QuarantinedPartitions > 0 })
				if m.QuarantinedPartitions == 0 {
					t.Fatalf("detected corruption never quarantined (%s)", pt)
				}
				if m.Degraded {
					t.Fatalf("file-scoped %s corruption degraded the whole DB: %q", pt, m.DegradedCause)
				}
				if m.QuarantinedPartitions < m.Partitions {
					// Scoping: at least one healthy partition still accepts
					// writes (guaranteed when any partition is unquarantined).
					if _, accepted := probeWrites(t, db, n); accepted == 0 {
						t.Fatalf("no partition accepted writes after scoped quarantine (%s)", pt)
					}
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
			}

			// Phase 2: offline repair with an explicit loss report.
			report, err := Repair("db", smallOpts(fs))
			if err != nil {
				t.Fatalf("repair after %s flip: %v", pt, err)
			}
			if !report.DataLost() && len(report.LogsTruncated) == 0 {
				t.Fatalf("repair found nothing to fix after %s flip:\n%s", pt, report)
			}

			// Phase 3: audit — reopen clean, every surviving key intact, and
			// every lost one accounted for by the report.
			intact, lost := reopenAndAudit(t, fs, n)
			if intact == 0 {
				t.Fatalf("repair lost everything for one flipped byte (%s)", pt)
			}
			checkLossAccounted(t, report, lost)
			t.Logf("%s: %d intact, %d lost\n%s", pt, intact, len(lost), report)
		})
	}
}

// TestCorruptionSweepReadTime arms FailFS CorruptPlans — strided byte
// flips applied at read time, per file class — while the database runs:
// the scrub must detect and quarantine, and after disarming (the disk
// bytes were never touched) a reopened database must be fully intact.
func TestCorruptionSweepReadTime(t *testing.T) {
	classes := []struct {
		name    string
		pattern string
	}{
		{"sst", "*.sst"},
		{"vlog", "vlog-*.log"},
	}
	for _, c := range classes {
		c := c
		t.Run(c.name, func(t *testing.T) {
			mem := vfs.NewMem()
			n := bigSeed(t, mem)
			ffs := vfs.NewFail(mem)
			ffs.ArmCorrupt(vfs.CorruptPlan{
				Pattern: c.pattern,
				Start:   64,
				Stride:  512,
				Count:   8,
			})
			db, err := Open("db", scrubOpts(ffs))
			if err != nil {
				if Classify(err) != ClassCorruption {
					t.Fatalf("open under read-time corruption: %v", err)
				}
				// Recovery itself read a corrupted range — detection at open.
				ffs.DisarmCorrupt()
			} else {
				m := waitMetrics(db, func(m StatsSnapshot) bool { return m.ScrubCorruptions > 0 })
				if m.ScrubCorruptions == 0 {
					t.Fatalf("scrub missed read-time %s corruption (reads corrupted: %d)",
						c.name, ffs.CorruptedReads())
				}
				if ffs.CorruptedReads() == 0 {
					t.Fatal("corruption counted but no read was actually corrupted")
				}
				waitMetrics(db, func(m StatsSnapshot) bool { return m.QuarantinedPartitions > 0 })
				if m = db.Metrics(); m.Degraded {
					t.Fatalf("read-time %s corruption degraded the whole DB: %q", c.name, m.DegradedCause)
				}
				ffs.DisarmCorrupt()
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
			}

			// The plan never touched disk: a clean reopen must verify and
			// serve everything (quarantine does not persist across open).
			db2, err := Open("db", bgOpts(mem))
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			if err := db2.VerifyIntegrity(); err != nil {
				t.Fatalf("disk bytes damaged by a read-time plan: %v", err)
			}
			for i := 0; i < n; i += 37 {
				v, err := db2.Get(key(i))
				if err != nil || !bytes.Equal(v, val(i)) {
					t.Fatalf("key %d wrong after disarm: %v", i, err)
				}
			}
			if m := db2.Metrics(); m.QuarantinedPartitions != 0 {
				t.Fatalf("quarantine leaked across reopen: %d", m.QuarantinedPartitions)
			}
		})
	}
}

// TestCorruptionSweepTornTail truncates the highest-offset value-log frame
// mid-frame (a torn tail, the crash signature) and asserts repair restores
// a clean, fully verifiable database with the tail's loss reported.
func TestCorruptionSweepTornTail(t *testing.T) {
	fs := vfs.NewMem()
	n := bigSeed(t, fs)
	name := firstFile(t, fs, filepath.Join("db", "vlog"), "vlog-*.log")
	data, err := fs.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 16 {
		t.Skipf("log too small to tear: %d bytes", len(data))
	}
	if err := fs.WriteFile(name, data[:len(data)-7]); err != nil {
		t.Fatal(err)
	}
	report, err := Repair("db", smallOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.LogsTruncated) != 1 {
		t.Fatalf("torn tail not truncated:\n%s", report)
	}
	intact, lost := reopenAndAudit(t, fs, n)
	if intact == 0 {
		t.Fatal("torn tail repair lost everything")
	}
	checkLossAccounted(t, report, lost) // the torn frame's key may be gone, reported
}
