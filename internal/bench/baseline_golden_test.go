package bench

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unikv/internal/vfs"
	"unikv/internal/ycsb"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/baseline_golden.txt")

const baselineGoldenPath = "testdata/baseline_golden.txt"

// classFS counts the bytes written to each file class (".sst", ".wal",
// "VERSION") over another FS; every other counter comes from the inner FS.
type classFS struct {
	vfs.FS
	written map[string]int64
}

func fileClass(name string) string {
	base := filepath.Base(name)
	if ext := filepath.Ext(base); ext != "" {
		return ext
	}
	return base
}

func (fs *classFS) Create(name string) (vfs.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &classFile{File: f, fs: fs, class: fileClass(name)}, nil
}

func (fs *classFS) WriteFile(name string, data []byte) error {
	fs.written[fileClass(name)] += int64(len(data))
	return fs.FS.WriteFile(name, data)
}

type classFile struct {
	vfs.File
	fs    *classFS
	class string
}

func (f *classFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written[f.class] += int64(n)
	return n, err
}

// engineShape reads a baseline's flush and compaction counts, its table
// count per level and the sum of its tables' access counts.
func engineShape(s Store) (flushes, compactions int64, levels []int, accesses int64) {
	switch s := s.(type) {
	case *lsmStore:
		st := s.db.Stats()
		for _, ls := range st.Levels {
			levels = append(levels, ls.Tables)
			accesses += ls.Accesses
		}
		return st.Flushes, st.Compactions, levels, accesses
	}
	panic(fmt.Sprintf("not a baseline: %T", s))
}

// runBaselineGolden drives one preset through six seeded phases and
// returns one line per phase.
func runBaselineGolden(t *testing.T, kind string) []string {
	const (
		n         = 5000
		valueSize = 100
		ops       = 2500
		scans     = 300
		seed      = 11
	)
	fs := &classFS{FS: vfs.NewMem(), written: map[string]int64{}}
	s, err := OpenStore(kind, Env{FS: fs, DatasetBytes: int64(n) * (valueSize + 20)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rnd := rand.New(rand.NewSource(seed))
	h := sha256.New()
	get := func(key []byte) {
		v, err := s.Get(key)
		if err != nil && !isNotFound(err) {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "g%s=%t:%s;", key, err == nil, v)
	}
	zipfGets := func(seed int64) {
		c := ycsb.NewClient(ycsb.Workload{ReadProp: 1, Dist: ycsb.Zipfian}, n, seed)
		for i := 0; i < ops; i++ {
			get(c.Next().Key)
		}
	}
	phases := []struct {
		name string
		run  func()
	}{
		{"load", func() {
			for _, i := range rnd.Perm(n) {
				if err := s.Put(ycsb.Key(i), ycsb.Value(i, valueSize)); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"get", func() { zipfGets(seed) }},
		{"scan", func() {
			for i := 0; i < scans; i++ {
				kvs, err := s.Scan(ycsb.Key(rnd.Intn(n)), 1+rnd.Intn(100))
				if err != nil {
					t.Fatal(err)
				}
				for _, kv := range kvs {
					fmt.Fprintf(h, "s%s=%s;", kv.Key, kv.Value)
				}
				fmt.Fprint(h, "|")
			}
		}},
		{"overwrite", func() {
			c := ycsb.NewClient(ycsb.Workload{UpdateProp: 1, Dist: ycsb.Zipfian}, n, seed)
			for i := 0; i < ops; i++ {
				if err := s.Put(c.Next().Key, ycsb.Value(n+i, valueSize)); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"delete", func() {
			for _, i := range rnd.Perm(n)[:n/10] {
				if err := s.Delete(ycsb.Key(i)); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"reget", func() { zipfGets(seed + 1) }},
	}
	var lines []string
	for _, ph := range phases {
		before := fs.Counters().Snapshot()
		sst, wal, version := fs.written[".sst"], fs.written[".wal"], fs.written["VERSION"]
		fl0, co0, _, _ := engineShape(s)
		h.Reset()
		ph.run()
		d := fs.Counters().Snapshot().Sub(before)
		fl, co, levels, acc := engineShape(s)
		lines = append(lines, fmt.Sprintf(
			"%s %s sst=%d wal=%d version=%d wops=%d created=%d deleted=%d rbytes=%d rops=%d flushes=%d compactions=%d levels=%v accesses=%d results=%x",
			kind, ph.name, fs.written[".sst"]-sst, fs.written[".wal"]-wal, fs.written["VERSION"]-version,
			d.WriteOps, d.FilesCreated, d.FilesDeleted, d.BytesRead, d.ReadOps,
			fl-fl0, co-co0, levels, acc, h.Sum(nil)[:8]))
	}
	return lines
}

// TestBaselineGolden pins what the four LSM-tree baselines do on one
// seeded workload (load in random order, zipfian gets, scans of 1–100
// keys, zipfian overwrites, deletes of 10 % of the keys, gets again): per
// phase, the bytes written to tables, WALs and VERSION, the write/read
// operation and file counts, the flush and compaction counts, the tree's
// shape, the tables' access sum and a hash of every Get and Scan result.
// Run with -update to rewrite the golden after a deliberate change.
func TestBaselineGolden(t *testing.T) {
	var got []string
	for _, kind := range []string{KindLevelDB, KindRocksDB, KindHyperLevelDB, KindPebblesDB} {
		got = append(got, runBaselineGolden(t, kind)...)
	}
	text := strings.Join(got, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(baselineGoldenPath, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(baselineGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Fatalf("golden has %d lines, run produced %d", len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("line %d differs:\n got  %s\n want %s", i+1, got[i], wantLines[i])
		}
	}
}
