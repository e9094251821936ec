package bench

import (
	"strings"
	"testing"

	"unikv/internal/vfs"
	"unikv/internal/ycsb"
)

func TestParamsDefaults(t *testing.T) {
	p := Params{}.WithDefaults()
	if p.N <= 0 || p.ValueSize <= 0 || p.Ops <= 0 || p.Seed == 0 || len(p.Stores) == 0 {
		t.Fatalf("defaults incomplete: %+v", p)
	}
	if p.DatasetBytes() <= 0 {
		t.Fatal("DatasetBytes")
	}
	// Explicit values survive.
	q := Params{N: 7, ValueSize: 9, Ops: 3, Seed: 42, Stores: []string{KindUniKV}}.WithDefaults()
	if q.N != 7 || q.ValueSize != 9 || q.Ops != 3 || q.Seed != 42 || len(q.Stores) != 1 {
		t.Fatalf("%+v", q)
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{
		Title:  "demo",
		Note:   "note",
		Header: []string{"a", "long-column"},
		Rows:   [][]string{{"x", "1"}, {"longer-cell", "2"}},
	}
	s := tab.String()
	for _, want := range []string{"== demo ==", "note", "long-column", "longer-cell"} {
		if !strings.Contains(s, want) {
			t.Fatalf("render missing %q:\n%s", want, s)
		}
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 6 { // title, note, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), s)
	}
}

func TestOpenStoreAllKinds(t *testing.T) {
	for _, kind := range append(AllKinds(), KindHashStore) {
		s, err := OpenStore(kind, Env{FS: vfs.NewMem(), DatasetBytes: 1 << 20})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if s.Name() == "" {
			t.Fatalf("%s: empty name", kind)
		}
		if err := s.Put([]byte("k"), []byte("v")); err != nil {
			t.Fatalf("%s put: %v", kind, err)
		}
		got, err := s.Get([]byte("k"))
		if err != nil || string(got) != "v" {
			t.Fatalf("%s get: %q %v", kind, got, err)
		}
		if err := s.Delete([]byte("k")); err != nil {
			t.Fatalf("%s delete: %v", kind, err)
		}
		if _, err := s.Get([]byte("k")); err == nil {
			t.Fatalf("%s: deleted key still present", kind)
		}
		_, scanErr := s.Scan([]byte("a"), 5)
		if kind == KindHashStore {
			if scanErr != ErrScanUnsupported {
				t.Fatalf("hashstore scan: %v", scanErr)
			}
		} else if scanErr != nil {
			t.Fatalf("%s scan: %v", kind, scanErr)
		}
		if err := s.Compact(); err != nil {
			t.Fatalf("%s compact: %v", kind, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%s close: %v", kind, err)
		}
	}
	if _, err := OpenStore("nonsense", Env{FS: vfs.NewMem()}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) < 14 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	for _, id := range ids {
		e, err := Lookup(id)
		if err != nil || e.Run == nil || e.Brief == "" {
			t.Fatalf("broken registration %q: %v", id, err)
		}
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Fatal("unknown experiment found")
	}
	if len(All()) != len(ids) {
		t.Fatal("All/IDs mismatch")
	}
}

func TestPhasesAgainstModel(t *testing.T) {
	s, _, err := openFresh(KindUniKV, Params{N: 500, ValueSize: 32}.WithDefaults(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := loadPhase(s, 500, 32, nil); err != nil {
		t.Fatal(err)
	}
	// All loaded keys resolve.
	for i := 0; i < 500; i += 50 {
		got, err := s.Get(ycsb.Key(i))
		if err != nil || len(got) != 32 {
			t.Fatalf("key %d: %v", i, err)
		}
	}
	if _, err := readPhase(s, 500, 200, ycsb.Zipfian, 1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := scanPhase(s, 500, 20, 10, 1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := updatePhase(s, 500, 200, 32, 1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := runYCSB(s, ycsb.WorkloadA, 500, 200, 32, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := runYCSB(s, ycsb.WorkloadE, 500, 100, 32, 1); err != nil {
		t.Fatal(err)
	}
}
