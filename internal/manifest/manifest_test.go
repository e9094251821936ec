package manifest

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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
