package sorted

import (
	"fmt"
	"testing"

	"unikv/internal/manifest"
	"unikv/internal/record"
	"unikv/internal/sstable"
	"unikv/internal/vfs"
)

// buildRun writes keys (already sorted) into tables of at most perTable
// records each and installs them in a Store.
func buildRun(t testing.TB, fs vfs.FS, keys []string, perTable int) *Store {
	t.Helper()
	var tables []*Table
	fileNum := uint64(1)
	for start := 0; start < len(keys); start += perTable {
		end := start + perTable
		if end > len(keys) {
			end = len(keys)
		}
		name := fmt.Sprintf("db/%06d.sst", fileNum)
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		b := sstable.NewBuilder(f, sstable.BuilderOptions{})
		for i, k := range keys[start:end] {
			ptr := record.ValuePtr{Partition: 1, LogNum: 0, Offset: uint32(start + i), Length: 8}
			b.Add(record.Record{Key: []byte(k), Seq: uint64(start + i + 1), Kind: record.KindSetPtr, Value: ptr.Encode(nil)})
		}
		props, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		rf, _ := fs.Open(name)
		rdr, err := sstable.Open(rf)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, &Table{
			Meta: manifest.TableMeta{
				FileNum: fileNum, Size: props.Size, Count: props.Count,
				Smallest: props.Smallest, Largest: props.Largest,
			},
			Reader: rdr,
		})
		fileNum++
	}
	return New(tables)
}

func seqKeys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("key-%05d", i)
	}
	return out
}

func TestGetSingleTablePerLookup(t *testing.T) {
	fs := vfs.NewMem()
	fs.MkdirAll("db")
	keys := seqKeys(1000)
	s := buildRun(t, fs, keys, 100)
	if s.NumTables() != 10 {
		t.Fatalf("NumTables=%d", s.NumTables())
	}
	for _, i := range []int{0, 99, 100, 555, 999} {
		rec, ok, err := s.Get([]byte(keys[i]))
		if err != nil || !ok {
			t.Fatalf("Get(%s): ok=%v err=%v", keys[i], ok, err)
		}
		ptr, err := record.DecodePtr(rec.Value)
		if err != nil || ptr.Offset != uint32(i) {
			t.Fatalf("pointer mismatch for %s: %v", keys[i], ptr)
		}
	}
	// Misses: before, between tables, after.
	for _, miss := range []string{"a", "key-00099x", "zzz"} {
		if _, ok, _ := s.Get([]byte(miss)); ok {
			t.Fatalf("phantom %q", miss)
		}
	}
}

func TestGetChecksExactlyOneTable(t *testing.T) {
	fs := vfs.NewMem()
	fs.MkdirAll("db")
	s := buildRun(t, fs, seqKeys(1000), 100)
	var before int64
	for _, tab := range s.Tables() {
		before += tab.Reader.BlockReads.Load()
	}
	s.Get([]byte("key-00555"))
	var after int64
	for _, tab := range s.Tables() {
		after += tab.Reader.BlockReads.Load()
	}
	if after-before != 1 {
		t.Fatalf("lookup touched %d blocks, want 1", after-before)
	}
	// A missing key still touches at most one block (the paper's
	// "one additional I/O to confirm a non-existent key").
	before = after
	s.Get([]byte("key-00555x"))
	after = 0
	for _, tab := range s.Tables() {
		after += tab.Reader.BlockReads.Load()
	}
	if after-before > 1 {
		t.Fatalf("missing-key lookup touched %d blocks", after-before)
	}
}

func TestEmptyStore(t *testing.T) {
	s := New(nil)
	if _, ok, err := s.Get([]byte("k")); ok || err != nil {
		t.Fatal("empty store returned a record")
	}
	it := s.NewIterator()
	if it.First() {
		t.Fatal("empty iterator valid")
	}
	if it.Seek([]byte("a")) {
		t.Fatal("empty Seek valid")
	}
	if s.SizeBytes() != 0 || s.NumTables() != 0 {
		t.Fatal("empty store reports size")
	}
}

func TestIteratorFullScan(t *testing.T) {
	fs := vfs.NewMem()
	fs.MkdirAll("db")
	keys := seqKeys(777)
	s := buildRun(t, fs, keys, 50)
	it := s.NewIterator()
	i := 0
	for ok := it.First(); ok; ok = it.Next() {
		if string(it.Record().Key) != keys[i] {
			t.Fatalf("at %d: %q want %q", i, it.Record().Key, keys[i])
		}
		i++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if i != len(keys) {
		t.Fatalf("scanned %d of %d", i, len(keys))
	}
}

func TestIteratorSeekAcrossTables(t *testing.T) {
	fs := vfs.NewMem()
	fs.MkdirAll("db")
	keys := seqKeys(300)
	s := buildRun(t, fs, keys, 30)
	it := s.NewIterator()

	if !it.Seek([]byte("key-00150")) || string(it.Record().Key) != "key-00150" {
		t.Fatalf("Seek mid: %q", it.Record().Key)
	}
	// Crossing a table boundary while scanning.
	n := 0
	for ok := it.Seek([]byte("key-00025")); ok && n < 10; ok = it.Next() {
		want := fmt.Sprintf("key-%05d", 25+n)
		if string(it.Record().Key) != want {
			t.Fatalf("at +%d: %q want %q", n, it.Record().Key, want)
		}
		n++
	}
	if n != 10 {
		t.Fatalf("scanned %d", n)
	}
	// Seek before first and past last.
	if !it.Seek([]byte("a")) || string(it.Record().Key) != "key-00000" {
		t.Fatal("Seek before-start")
	}
	if it.Seek([]byte("zzzz")) {
		t.Fatal("Seek past-end valid")
	}
}

func TestSingleTableRun(t *testing.T) {
	fs := vfs.NewMem()
	fs.MkdirAll("db")
	keys := seqKeys(10)
	s := buildRun(t, fs, keys, 100)
	if s.NumTables() != 1 {
		t.Fatalf("NumTables=%d", s.NumTables())
	}
	for _, k := range keys {
		if _, ok, _ := s.Get([]byte(k)); !ok {
			t.Fatalf("%s missing", k)
		}
	}
}

// benchRun is a run of 16 tables of 4096 pointer records, the shape of a
// partition's SortedStore in the ledger's dataset.
func benchRun(b *testing.B) (*Store, []string) {
	keys := seqKeys(16 * 4096)
	fs := vfs.NewMem()
	fs.MkdirAll("db")
	return buildRun(b, fs, keys, 4096), keys
}

// BenchmarkGetHit: the boundary search, the index search, one block read
// (no cache is attached) and the search inside it.
func BenchmarkGetHit(b *testing.B) {
	s, keys := benchRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i*7919%len(keys)]
		if _, ok, err := s.Get([]byte(k)); !ok || err != nil {
			b.Fatalf("%s: %v %v", k, ok, err)
		}
	}
}

// BenchmarkGetAbsent: a key that sorts between two resident ones costs what
// a hit does; only a key outside every table stops at the boundary search.
func BenchmarkGetAbsent(b *testing.B) {
	s, keys := benchRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i*7919%len(keys)] + "x"
		if _, ok, err := s.Get([]byte(k)); ok || err != nil {
			b.Fatalf("%s: %v %v", k, ok, err)
		}
	}
}
