package core

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"unikv/internal/vfs"
	"unikv/internal/vlog"
)

// reopenAndAudit reopens the repaired database, requires a clean
// VerifyIntegrity, and classifies every seeded key as intact (correct
// bytes) or lost (ErrNotFound), handing back the lost ones. Any other
// outcome — wrong bytes, a read error — fails: repair must never leave
// silently wrong data behind.
func reopenAndAudit(t *testing.T, fs vfs.FS, n int) (intact int, lost []int) {
	t.Helper()
	db := openSmall(t, fs)
	defer func() {
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity after repair: %v", err)
	}
	for i := 0; i < n; i++ {
		v, err := db.Get(key(i))
		switch {
		case err == nil && bytes.Equal(v, val(i)):
			intact++
		case errors.Is(err, ErrNotFound):
			lost = append(lost, i)
		case err == nil:
			t.Fatalf("key %d returned wrong bytes after repair", i)
		default:
			t.Fatalf("key %d unreadable after repair: %v", i, err)
		}
	}
	// The repaired database must also accept writes everywhere again.
	if err := db.Put([]byte("post-repair-probe"), []byte("ok")); err != nil {
		t.Fatalf("write after repair: %v", err)
	}
	return intact, lost
}

// lossUnaccounted returns the keys in lost that the report does not
// account for: a lost key lies inside a dropped table's [Smallest, Largest]
// or is one of the dropped dangling pointers, so the keys outside every
// dropped range may number at most PointersDropped. It returns nil when
// they do.
func lossUnaccounted(report *RepairReport, lost [][]byte) [][]byte {
	var outside [][]byte
	for _, k := range lost {
		if !slices.ContainsFunc(report.TablesDropped, func(d DroppedFile) bool {
			return bytes.Compare(k, d.Smallest) >= 0 && bytes.Compare(k, d.Largest) <= 0
		}) {
			outside = append(outside, k)
		}
	}
	if len(outside) <= report.PointersDropped {
		return nil
	}
	return outside
}

// checkLossAccounted fails unless the report accounts for every lost key.
func checkLossAccounted(t *testing.T, report *RepairReport, lost []int) {
	t.Helper()
	keys := make([][]byte, len(lost))
	for i, k := range lost {
		keys[i] = key(k)
	}
	if out := lossUnaccounted(report, keys); out != nil {
		t.Fatalf("%d lost keys lie outside every dropped table, %d pointers dropped (first %q):\n%s",
			len(out), report.PointersDropped, out[0], report)
	}
}

// TestRepairCleanIsNoop: repairing an intact database loses nothing and
// changes nothing observable.
func TestRepairCleanIsNoop(t *testing.T) {
	fs, n := corruptSeed(t)
	report, err := Repair("db", smallOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	if report.DataLost() || len(report.LogsTruncated) > 0 {
		t.Fatalf("clean repair reported damage:\n%s", report)
	}
	intact, lost := reopenAndAudit(t, fs, n)
	if len(lost) != 0 || intact != n {
		t.Fatalf("clean repair lost data: %d intact, %d lost", intact, len(lost))
	}
}

// TestRepairDropsCorruptTable: a table with a flipped data byte moves to
// lost/, the report names it with its key range, and every key outside the
// dropped table survives byte-identical.
func TestRepairDropsCorruptTable(t *testing.T) {
	fs, n := corruptSeed(t)
	pdir := firstFile(t, fs, "db", "p[0-9]*")
	name := firstFile(t, fs, pdir, "*.sst")
	flipByte(t, fs, name, 20)

	report, err := Repair("db", smallOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.TablesDropped) != 1 {
		t.Fatalf("TablesDropped=%d, want 1:\n%s", len(report.TablesDropped), report)
	}
	d := report.TablesDropped[0]
	if d.Path != name {
		t.Fatalf("dropped %s, corrupted %s", d.Path, name)
	}
	if len(d.Smallest) == 0 || len(d.Largest) == 0 {
		t.Fatalf("loss report missing the affected key range: %+v", d)
	}
	if !report.DataLost() {
		t.Fatal("DataLost()=false after dropping a table")
	}
	// The original bytes moved to lost/, not deleted.
	if lostName := firstFile(t, fs, filepath.Join("db", "lost"), "*.sst"); lostName == "" {
		t.Fatal("dropped table not preserved in lost/")
	}

	intact, lost := reopenAndAudit(t, fs, n)
	if len(lost) == 0 {
		t.Fatal("dropping a table lost no keys — the corrupt table was not in the read path")
	}
	if intact == 0 {
		t.Fatal("repair lost every key for a single corrupt table")
	}
	if intact+len(lost) != n {
		t.Fatalf("audit mismatch: %d intact + %d lost != %d", intact, len(lost), n)
	}
	// Loss is bounded by the dropped table's key range.
	for _, i := range lost {
		if bytes.Compare(key(i), d.Smallest) < 0 || bytes.Compare(key(i), d.Largest) > 0 {
			t.Fatalf("lost key %q lies outside the dropped table's [%q, %q]", key(i), d.Smallest, d.Largest)
		}
	}
}

// TestRepairReportsMissingTable: a table the intact manifest names is gone
// from disk. Open refuses the directory; Repair keeps the manifest's layout,
// reports the table with the key range the manifest records for it, and
// every lost key lies in that range.
func TestRepairReportsMissingTable(t *testing.T) {
	fs, n := corruptSeed(t)
	name := firstFile(t, fs, firstFile(t, fs, "db", "p[0-9]*"), "*.sst")
	if err := fs.Remove(name); err != nil {
		t.Fatal(err)
	}
	if _, err := Open("db", smallOpts(fs)); Classify(err) != ClassCorruption {
		t.Fatalf("Open with a named table missing: %v, want a corruption-class refusal", err)
	}
	report, err := Repair("db", smallOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	if report.ManifestRebuilt || len(report.TablesDropped) != 1 {
		t.Fatalf("want the manifest kept and one table dropped:\n%s", report)
	}
	if d := report.TablesDropped[0]; d.Path != name || len(d.Smallest) == 0 || len(d.Largest) == 0 {
		t.Fatalf("dropped %+v, removed %s", d, name)
	}
	intact, lost := reopenAndAudit(t, fs, n)
	if len(lost) == 0 || intact == 0 {
		t.Fatalf("unexpected loss shape: %d intact, %d lost", intact, len(lost))
	}
	checkLossAccounted(t, report, lost)
}

// TestRepairTruncatesTornVlogAndDropsDanglingPointers: a torn value-log
// tail is cut back to the last valid frame, and every table pointer into
// the lost region is dropped via rewrite — the repaired database reopens
// clean with bounded, reported loss.
func TestRepairTruncatesTornVlogAndDropsDanglingPointers(t *testing.T) {
	fs, n := corruptSeed(t)
	name := firstFile(t, fs, filepath.Join("db", "vlog"), "vlog-*.log")
	data, err := fs.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a frame near the middle: everything from that frame on is an
	// invalid suffix, so repair truncates roughly half the log.
	flipByte(t, fs, name, len(data)/2)

	report, err := Repair("db", smallOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.LogsTruncated) != 1 {
		t.Fatalf("LogsTruncated=%d, want 1:\n%s", len(report.LogsTruncated), report)
	}
	tr := report.LogsTruncated[0]
	if tr.NewSize <= 0 || tr.NewSize >= tr.OldSize {
		t.Fatalf("truncation %d -> %d makes no sense", tr.OldSize, tr.NewSize)
	}
	if report.PointersDropped == 0 || report.TablesRewritten == 0 {
		t.Fatalf("no dangling pointers dropped for a truncated referenced log:\n%s", report)
	}
	got, err := fs.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(got)) != tr.NewSize {
		t.Fatalf("log is %d bytes, report says %d", len(got), tr.NewSize)
	}

	intact, lost := reopenAndAudit(t, fs, n)
	if len(lost) == 0 || intact == 0 {
		t.Fatalf("unexpected loss shape: %d intact, %d lost", intact, len(lost))
	}
	checkLossAccounted(t, report, lost)
}

// TestRepairRebuildsCorruptManifest: with the manifest unreadable, repair
// reconstructs the layout from the directory shape. Tables and logs are
// intact, so no committed data may be lost.
func TestRepairRebuildsCorruptManifest(t *testing.T) {
	fs, n := corruptSeed(t)
	name := firstFile(t, fs, "db", "MANIFEST-*")
	flipByte(t, fs, name, 30)

	report, err := Repair("db", smallOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	if !report.ManifestRebuilt {
		t.Fatalf("manifest corruption not detected:\n%s", report)
	}
	if report.DataLost() {
		t.Fatalf("manifest rebuild lost data with intact tables:\n%s", report)
	}
	intact, lost := reopenAndAudit(t, fs, n)
	if len(lost) != 0 || intact != n {
		t.Fatalf("manifest rebuild lost keys: %d intact, %d lost", intact, len(lost))
	}
}

// TestRepairAfterDamagedManifest flips each byte of the manifest in turn,
// and removes CURRENT. Open must refuse the directory as corruption —
// removing no file under a partition directory or vlog/ — or serve every
// key; Repair must then lose nothing. Before the refusal, most flips made
// Open bootstrap over the data or accept an older state, and its orphan
// sweep deleted every table and value log.
func TestRepairAfterDamagedManifest(t *testing.T) {
	seed, n := corruptSeed(t)
	man := firstFile(t, seed, "db", "MANIFEST-*")
	data, err := seed.ReadFile(man)
	if err != nil {
		t.Fatal(err)
	}
	for off := -1; off < len(data); off++ {
		what := fmt.Sprintf("byte %d of %s flipped", off, man)
		fs := vfs.NewMem()
		copyFS(t, seed, fs)
		if off < 0 {
			what = "CURRENT removed"
			if err := fs.Remove(filepath.Join("db", "CURRENT")); err != nil {
				t.Fatal(err)
			}
		} else {
			flipByte(t, fs, man, off)
		}
		before := dataFiles(fs)
		db, err := Open("db", smallOpts(fs))
		if err != nil {
			if Classify(err) != ClassCorruption {
				t.Fatalf("%s: Open: %v, want a corruption-class refusal", what, err)
			}
			for _, name := range before {
				if !fs.Exists(name) {
					t.Fatalf("%s: the refused Open removed %s", what, name)
				}
			}
		} else {
			for i := 0; i < n; i++ {
				if v, err := db.Get(key(i)); err != nil || !bytes.Equal(v, val(i)) {
					t.Fatalf("%s: Open accepted the manifest but key %d reads %v", what, i, err)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
		report, err := Repair("db", smallOpts(fs))
		if err != nil {
			t.Fatalf("%s: Repair: %v\n%s", what, err, report)
		}
		if intact, lost := reopenAndAudit(t, fs, n); len(lost) != 0 {
			t.Fatalf("%s: repair lost keys: %d intact, %d lost\n%s", what, intact, len(lost), report)
		}
	}
}

// dataFiles lists every file under a partition directory or vlog/.
func dataFiles(fs vfs.FS) []string {
	var names []string
	for _, f := range diskFiles(fs, "db") {
		names = append(names, partFileName(partDir("db", f.part), f.kind, f.num))
	}
	logs, _ := fs.List(filepath.Join("db", "vlog"))
	for _, l := range logs {
		names = append(names, filepath.Join("db", "vlog", l))
	}
	return names
}

// TestRepairRewriteNeverReusesANumber: rewritten tables are numbered above
// every file on disk, also after a manifest rebuild, when the state's
// counter is gone. Here a table renamed to 00000001.sst survives beside
// the rewrites a truncated value log forces; an allocator restarting at 1
// created the first rewrite over it and lost every key it held.
func TestRepairRewriteNeverReusesANumber(t *testing.T) {
	fs, n := corruptSeed(t)
	tables, err := fs.List(filepath.Join("db", "p1"))
	if err != nil {
		t.Fatal(err)
	}
	tables = slices.DeleteFunc(tables, func(name string) bool { return filepath.Ext(name) != ".sst" })
	if len(tables) < 2 {
		t.Fatalf("seed has tables %v, want at least 2", tables)
	}
	if err := fs.Rename(filepath.Join("db", "p1", tables[1]), tableName(filepath.Join("db", "p1"), 1)); err != nil {
		t.Fatal(err)
	}
	flipByte(t, fs, firstFile(t, fs, "db", "MANIFEST-*"), 30)
	log := filepath.Join("db", "vlog", vlog.LogName(0))
	data, err := fs.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, fs, log, len(data)/2)

	report, err := Repair("db", smallOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	if !report.ManifestRebuilt || report.TablesRewritten == 0 {
		t.Fatalf("want a manifest rebuild with rewrites:\n%s", report)
	}
	_, lost := reopenAndAudit(t, fs, n)
	checkLossAccounted(t, report, lost)
}

// TestRepairWhollyCorruptVlog: a log with no valid frame moves to lost/
// and every pointer into it is dropped.
func TestRepairWhollyCorruptVlog(t *testing.T) {
	fs, n := corruptSeed(t)
	name := firstFile(t, fs, filepath.Join("db", "vlog"), "vlog-*.log")
	flipByte(t, fs, name, 0) // first frame header: no valid prefix

	report, err := Repair("db", smallOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.LogsDropped) != 1 {
		t.Fatalf("LogsDropped=%d, want 1:\n%s", len(report.LogsDropped), report)
	}
	if fs.Exists(name) {
		t.Fatal("wholly corrupt log still present in vlog/")
	}
	intact, lost := reopenAndAudit(t, fs, n)
	if len(lost) == 0 || intact == 0 {
		t.Fatalf("unexpected loss shape: %d intact, %d lost", intact, len(lost))
	}
	checkLossAccounted(t, report, lost)
}

// TestRepairRefusesOpenDatabase: repair takes the directory lock, so a
// live owner blocks it with ErrDBLocked.
func TestRepairRefusesOpenDatabase(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs)
	defer db.Close()
	if _, err := Repair("db", smallOpts(fs)); !errors.Is(err, ErrDBLocked) {
		t.Fatalf("Repair on an open db: %v, want ErrDBLocked", err)
	}
}
