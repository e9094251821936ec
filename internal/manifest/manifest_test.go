package manifest

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"unikv/internal/vfs"
)

func tmeta(num uint64, lo, hi string) TableMeta {
	return TableMeta{
		FileNum: num, Size: 1000, Count: 10,
		Smallest: []byte(lo), Largest: []byte(hi),
		MinSeq: 1, MaxSeq: 10,
	}
}

func TestOpenFresh(t *testing.T) {
	fs := vfs.NewMem()
	m, err := Open(fs, "db")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s := m.State()
	if s.NextFileNum != 1 || len(s.Partitions) != 0 {
		t.Fatalf("fresh state: %+v", s)
	}
	if !fs.Exists("db/CURRENT") {
		t.Fatal("CURRENT not written")
	}
}

func TestApplyAndRecover(t *testing.T) {
	fs := vfs.NewMem()
	m, err := Open(fs, "db")
	if err != nil {
		t.Fatal(err)
	}
	err = m.Apply(
		NextFile(10),
		LastSeq(55),
		NextLog(3),
		NextPart(2),
		AddPartition(1, nil),
		AddUnsorted(1, tmeta(4, "a", "m")),
		AddUnsorted(1, tmeta(5, "c", "z")),
		SetSorted(1, []TableMeta{tmeta(6, "a", "k"), tmeta(7, "k1", "z")}),
		SetWAL(1, 8),
		SetHashCkpt(1, 9),
		SetLogs(1, []uint32{0, 1, 2}),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := m.State()
	m.Close()

	m2, err := Open(fs, "db")
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	got := m2.State()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("state mismatch:\n got %+v\nwant %+v", got, want)
	}
	p := got.Partitions[1]
	if len(p.Unsorted) != 2 || len(p.Sorted) != 2 || p.WALNum != 8 || p.HashCkpt != 9 {
		t.Fatalf("partition: %+v", p)
	}
	if !bytes.Equal(p.Sorted[1].Smallest, []byte("k1")) {
		t.Fatalf("table meta lost: %+v", p.Sorted[1])
	}
}

func TestAtomicBatches(t *testing.T) {
	fs := vfs.NewMem()
	m, _ := Open(fs, "db")
	m.Apply(AddPartition(1, nil))
	// A batch with a bad edit must change nothing.
	err := m.Apply(
		SetWAL(1, 5),
		SetWAL(99, 6), // unknown partition
	)
	if err == nil {
		t.Fatal("bad batch accepted")
	}
	if m.State().Partitions[1].WALNum != 0 {
		t.Fatal("partial batch applied")
	}
	m.Close()
}

func TestSplitScenario(t *testing.T) {
	fs := vfs.NewMem()
	m, _ := Open(fs, "db")
	if err := m.Apply(
		AddPartition(1, nil),
		SetLogs(1, []uint32{0, 1}),
		NextPart(2),
	); err != nil {
		t.Fatal(err)
	}
	// Split partition 1 at key "m": child 2 takes [m, ∞); both children
	// reference the parent's logs (lazy value split).
	if err := m.Apply(
		AddPartition(2, []byte("m")),
		SetLogs(2, []uint32{0, 1}),
		SetSorted(1, []TableMeta{tmeta(10, "a", "l")}),
		SetSorted(2, []TableMeta{tmeta(11, "m", "z")}),
		NextPart(3),
	); err != nil {
		t.Fatal(err)
	}
	m.Close()

	m2, _ := Open(fs, "db")
	defer m2.Close()
	ps := m2.State().SortedPartitions()
	if len(ps) != 2 {
		t.Fatalf("%d partitions", len(ps))
	}
	if ps[0].ID != 1 || ps[1].ID != 2 {
		t.Fatalf("order: %d, %d", ps[0].ID, ps[1].ID)
	}
	if string(ps[1].Lower) != "m" {
		t.Fatalf("boundary: %q", ps[1].Lower)
	}
	if len(ps[0].Logs) != 2 || len(ps[1].Logs) != 2 {
		t.Fatal("shared logs lost")
	}
}

func TestRemovePartition(t *testing.T) {
	fs := vfs.NewMem()
	m, _ := Open(fs, "db")
	m.Apply(AddPartition(1, nil), AddPartition(2, []byte("m")))
	m.Apply(RemovePartition(1))
	if len(m.State().Partitions) != 1 {
		t.Fatal("remove failed")
	}
	m.Close()
	m2, _ := Open(fs, "db")
	defer m2.Close()
	if len(m2.State().Partitions) != 1 {
		t.Fatal("remove not durable")
	}
}

func TestRotation(t *testing.T) {
	fs := vfs.NewMem()
	m, _ := Open(fs, "db")
	m.RotateAt = 512
	for i := 0; i < 200; i++ {
		if err := m.Apply(NextFile(uint64(i + 2))); err != nil {
			t.Fatal(err)
		}
	}
	if m.gen < 2 {
		t.Fatal("no rotation happened")
	}
	want := m.State()
	m.Close()
	m2, err := Open(fs, "db")
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("state lost in rotation:\n got %+v\nwant %+v", got, want)
	}
	// Old manifests cleaned up: at most 2 manifest files around.
	names, _ := fs.List("db")
	n := 0
	for _, name := range names {
		if len(name) > 8 && name[:9] == "MANIFEST-" {
			n++
		}
	}
	if n > 2 {
		t.Fatalf("%d stale manifests", n)
	}
}

func TestTornManifestTail(t *testing.T) {
	fs := vfs.NewMem()
	m, _ := Open(fs, "db")
	m.Apply(AddPartition(1, nil))
	m.Apply(SetWAL(1, 7))
	cur, _ := fs.ReadFile("db/CURRENT")
	name := "db/" + string(bytes.TrimSpace(cur))
	m.Close()

	// Tear off the last few bytes: the last batch may be lost, but the
	// manifest must still open and contain the earlier state.
	data, _ := fs.ReadFile(name)
	fs.WriteFile(name, data[:len(data)-3])
	m2, err := Open(fs, "db")
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if _, ok := m2.State().Partitions[1]; !ok {
		t.Fatal("partition lost to torn tail")
	}
}

// TestDamagedManifestRefused: a flipped byte before the final record, or a
// CURRENT naming no manifest, is ErrCorrupt — not the prefix that reads
// clean — and Load writes nothing while it refuses.
func TestDamagedManifestRefused(t *testing.T) {
	fs := vfs.NewMem()
	m, _ := Open(fs, "db")
	m.Apply(AddPartition(1, nil))
	m.Apply(SetWAL(1, 7))
	cur, _ := fs.ReadFile("db/CURRENT")
	name := "db/" + string(bytes.TrimSpace(cur))
	m.Close()
	data, _ := fs.ReadFile(name)
	data[10] ^= 0xff // inside the snapshot record
	fs.WriteFile(name, data)
	if _, _, _, err := Load(fs, "db"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load of a damaged manifest: %v, want ErrCorrupt", err)
	}
	if _, err := Open(fs, "db"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open of a damaged manifest: %v, want ErrCorrupt", err)
	}
	if got, _ := fs.ReadFile(name); !bytes.Equal(got, data) {
		t.Fatal("refusing a damaged manifest rewrote it")
	}
	fs.WriteFile("db/CURRENT", []byte("MANIFEST-000099\n"))
	if _, _, _, err := Load(fs, "db"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load with CURRENT naming no manifest: %v, want ErrCorrupt", err)
	}
}

// TestZeroedManifestPageRefused: a manifest page that never reached the
// disk reads as zeros while the pages behind it survive. Every record
// behind the hole was acknowledged, so the prefix before it is a stale
// state: Load must refuse it as ErrCorrupt, and Open must refuse without
// rewriting the file.
func TestZeroedManifestPageRefused(t *testing.T) {
	fs := vfs.NewMem()
	m, _ := Open(fs, "db")
	m.Apply(AddPartition(1, nil))
	for i := 10; i < 610; i++ {
		m.Apply(SetWAL(1, uint64(i)), NextFile(uint64(i)<<4))
	}
	cur, _ := fs.ReadFile("db/CURRENT")
	name := "db/" + string(bytes.TrimSpace(cur))
	m.Close()
	data, _ := fs.ReadFile(name)
	if len(data) <= 8192 {
		t.Fatalf("manifest is %d bytes, want more than two pages", len(data))
	}
	clear(data[4096:8192])
	fs.WriteFile(name, data)
	if st, _, torn, err := Load(fs, "db"); !errors.Is(err, ErrCorrupt) {
		var wal uint64
		if st != nil && st.Partitions[1] != nil {
			wal = st.Partitions[1].WALNum
		}
		t.Fatalf("Load of a manifest with a zeroed page: WAL %d torn=%v err=%v, want ErrCorrupt", wal, torn, err)
	}
	if _, err := Open(fs, "db"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open of a manifest with a zeroed page: %v, want ErrCorrupt", err)
	}
	if got, _ := fs.ReadFile(name); !bytes.Equal(got, data) {
		t.Fatal("refusing a damaged manifest rewrote it")
	}
}

// TestFailedApplyIsNotReplayed: an Apply that reports failure must leave a
// log whose replay does not apply its batch — the caller drops the files
// the batch named — and the manifest must keep accepting batches. A failed
// sync leaves the complete record in the log, a torn write leaves a writer
// that takes no more, and a failed rotation comes after the batch is
// committed. A rotation whose last directory sync fails has already
// repointed CURRENT, so the retry (a failing one here) must not rewrite
// the generation CURRENT names.
func TestFailedApplyIsNotReplayed(t *testing.T) {
	rotationSyncDir := vfs.FailPlan{Kinds: vfs.OpSyncDir, Skip: 1, Fail: 1}
	for _, c := range []struct {
		name     string
		plan     vfs.FailPlan
		rotateAt int64
		failed   bool // whether Apply(SetWAL(1, 7)) reports failure
		// retry, when set, fails the next Apply(SetWAL(1, 8)).
		retry *vfs.FailPlan
	}{
		{"sync", vfs.FailPlan{Pattern: "MANIFEST-*", Kinds: vfs.OpSync, Fail: 1}, 0, true, nil},
		{"torn-write", vfs.FailPlan{Pattern: "MANIFEST-*", Kinds: vfs.OpWrite, Fail: 1, TornBytes: 3}, 0, true, nil},
		{"rotation", vfs.FailPlan{Pattern: "MANIFEST-*", Kinds: vfs.OpCreate, Fail: 1}, 1, false, nil},
		{"rotation-syncdir", rotationSyncDir, 1, false, nil},
		{"rotation-syncdir-retry-write", rotationSyncDir, 1, false,
			&vfs.FailPlan{Pattern: "MANIFEST-*", Kinds: vfs.OpWrite, Fail: 1}},
		{"rotation-syncdir-retry-sync", rotationSyncDir, 1, false,
			&vfs.FailPlan{Pattern: "MANIFEST-*", Kinds: vfs.OpSync, Fail: 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			inner := vfs.NewMem()
			ffs := vfs.NewFail(inner)
			m, err := Open(ffs, "db")
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Apply(AddPartition(1, nil)); err != nil {
				t.Fatal(err)
			}
			m.RotateAt = c.rotateAt
			ffs.ArmPlan(c.plan)
			err = m.Apply(SetWAL(1, 7))
			ffs.Disarm()
			if (err != nil) != c.failed {
				t.Fatalf("Apply: %v, want failure %v", err, c.failed)
			}
			want := uint64(0)
			if !c.failed {
				want = 7
			}
			// A crash now must recover what Apply reported.
			if got := loadWAL(t, inner); got != want {
				t.Fatalf("after Apply reported failure=%v, a reopen reads WAL %d, want %d", c.failed, got, want)
			}
			if c.retry != nil {
				ffs.ArmPlan(*c.retry)
				err := m.Apply(SetWAL(1, 8))
				ffs.Disarm()
				if err == nil {
					t.Fatal("Apply under the retry's fault succeeded")
				}
				if got := loadWAL(t, inner); got != want {
					t.Fatalf("after a failed retry, a reopen reads WAL %d, want %d", got, want)
				}
			}
			if err := m.Apply(SetWAL(1, 8)); err != nil {
				t.Fatalf("Apply after the fault: %v", err)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			if got := loadWAL(t, inner); got != 8 {
				t.Fatalf("after Close: WAL %d, want 8", got)
			}
			// Superseded generations are gone: only the one CURRENT names
			// is left.
			names, _ := inner.List("db")
			var logs []string
			for _, n := range names {
				if strings.HasPrefix(n, "MANIFEST-") {
					logs = append(logs, n)
				}
			}
			if len(logs) != 1 {
				t.Fatalf("manifest generations left after Close: %v, want one", logs)
			}
		})
	}
}

// loadWAL returns partition 1's WAL number as a reopen would read it.
func loadWAL(t *testing.T, fs vfs.FS) uint64 {
	t.Helper()
	st, _, _, err := Load(fs, "db")
	if err != nil {
		t.Fatal(err)
	}
	if st.Partitions[1] == nil {
		t.Fatalf("a reopen reads no partition 1: %d partitions", len(st.Partitions))
	}
	return st.Partitions[1].WALNum
}

func TestStateCloneIsolated(t *testing.T) {
	s := NewState()
	s.Partitions[1] = &PartitionMeta{ID: 1, Logs: []uint32{1}}
	c := s.Clone()
	c.Partitions[1].Logs[0] = 99
	c.Partitions[1].Unsorted = append(c.Partitions[1].Unsorted, TableMeta{})
	if s.Partitions[1].Logs[0] == 99 || len(s.Partitions[1].Unsorted) != 0 {
		t.Fatal("Clone shares memory")
	}
}

// TestQuickEditRoundTrip: random edit batches survive encode/decode and
// replay to the same state.
func TestQuickEditRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		fs := vfs.NewMem()
		m, err := Open(fs, "db")
		if err != nil {
			return false
		}
		pids := []uint32{}
		for batch := 0; batch < 10; batch++ {
			var edits []Edit
			for i := 0; i < rnd.Intn(5)+1; i++ {
				switch rnd.Intn(6) {
				case 0:
					edits = append(edits, NextFile(rnd.Uint64()%1e6))
				case 1:
					id := uint32(len(pids) + 1)
					pids = append(pids, id)
					edits = append(edits, AddPartition(id, []byte(fmt.Sprintf("k%03d", id))))
				case 2:
					if len(pids) > 0 {
						id := pids[rnd.Intn(len(pids))]
						edits = append(edits, AddUnsorted(id, tmeta(rnd.Uint64()%1e6, "a", "z")))
					}
				case 3:
					if len(pids) > 0 {
						id := pids[rnd.Intn(len(pids))]
						edits = append(edits, SetSorted(id, []TableMeta{tmeta(rnd.Uint64()%1e6, "b", "y")}))
					}
				case 4:
					if len(pids) > 0 {
						id := pids[rnd.Intn(len(pids))]
						edits = append(edits, SetLogs(id, []uint32{rnd.Uint32() % 100}))
					}
				case 5:
					edits = append(edits, LastSeq(rnd.Uint64()%1e9))
				}
			}
			if len(edits) == 0 {
				continue
			}
			if err := m.Apply(edits...); err != nil {
				return false
			}
		}
		want := m.State()
		m.Close()
		m2, err := Open(fs, "db")
		if err != nil {
			return false
		}
		defer m2.Close()
		return reflect.DeepEqual(m2.State(), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
