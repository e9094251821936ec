package sortedview

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"unikv/internal/cache"
	"unikv/internal/mergeiter"
	"unikv/internal/record"
	"unikv/internal/sstable"
	"unikv/internal/vfs"
)

func buildTable(t testing.TB, fs vfs.FS, name string, recs []record.Record) *sstable.Reader {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	b := sstable.NewBuilder(f, sstable.BuilderOptions{BlockSize: 128})
	for _, r := range recs {
		b.Add(r)
	}
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sstable.Open(rf)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// sortRecs orders records in merge order (key asc, seq desc).
func sortRecs(recs []record.Record) {
	sort.Slice(recs, func(i, j int) bool {
		return mergeiter.Less(recs[i].Key, recs[i].Seq, recs[j].Key, recs[j].Seq)
	})
}

// buildView flushes each batch as one table and merges it into the view
// incrementally, mirroring the flush path.
func buildView(t testing.TB, batches [][]record.Record) (*View, []record.Record) {
	t.Helper()
	fs := vfs.NewMem()
	v := New()
	var all []record.Record
	for i, recs := range batches {
		sortRecs(recs)
		r := buildTable(t, fs, fmt.Sprintf("t%03d.sst", i), recs)
		entries, err := Collect(r)
		if err != nil {
			t.Fatal(err)
		}
		v = v.WithTable(r, entries)
		all = append(all, recs...)
	}
	sortRecs(all)
	return v, all
}

func checkIterMatches(t *testing.T, v *View, want []record.Record) {
	t.Helper()
	if v.Len() != len(want) {
		t.Fatalf("view Len=%d want %d", v.Len(), len(want))
	}
	it := v.NewIterator()
	i := 0
	for ok := it.First(); ok; ok = it.Next() {
		rec := it.Record()
		w := want[i]
		if !bytes.Equal(rec.Key, w.Key) || rec.Seq != w.Seq || rec.Kind != w.Kind || !bytes.Equal(rec.Value, w.Value) {
			t.Fatalf("entry %d: got {%q %d %d %q} want {%q %d %d %q}",
				i, rec.Key, rec.Seq, rec.Kind, rec.Value, w.Key, w.Seq, w.Kind, w.Value)
		}
		i++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("iterated %d entries, want %d", i, len(want))
	}
}

func TestEmptyView(t *testing.T) {
	v := New()
	if v.Len() != 0 || v.NumTables() != 0 {
		t.Fatalf("empty view: Len=%d NumTables=%d", v.Len(), v.NumTables())
	}
	it := v.NewIterator()
	if it.First() || it.Valid() {
		t.Fatal("First on empty view should be invalid")
	}
	if it.Seek([]byte("a")) {
		t.Fatal("Seek on empty view should be invalid")
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
}

func TestSingleTable(t *testing.T) {
	var recs []record.Record
	for i := 0; i < 100; i++ {
		recs = append(recs, record.Record{
			Key:   []byte(fmt.Sprintf("key-%04d", i)),
			Seq:   uint64(i + 1),
			Kind:  record.KindSet,
			Value: []byte(fmt.Sprintf("val-%04d", i)),
		})
	}
	v, want := buildView(t, [][]record.Record{recs})
	if v.NumTables() != 1 {
		t.Fatalf("NumTables=%d", v.NumTables())
	}
	checkIterMatches(t, v, want)
}

func TestIncrementalOverlappingTables(t *testing.T) {
	// Five tables with interleaved and duplicated keys, added one at a time
	// like successive flushes; all versions must survive in merge order.
	rnd := rand.New(rand.NewSource(7))
	var batches [][]record.Record
	seq := uint64(1)
	for b := 0; b < 5; b++ {
		var recs []record.Record
		for i := 0; i < 200; i++ {
			k := rnd.Intn(300) // heavy overlap across batches
			kind := record.KindSet
			if rnd.Intn(8) == 0 {
				kind = record.KindDelete
			}
			rec := record.Record{
				Key:  []byte(fmt.Sprintf("key-%05d", k)),
				Seq:  seq,
				Kind: kind,
			}
			if kind == record.KindSet {
				rec.Value = []byte(fmt.Sprintf("v%d-%d", b, i))
			}
			seq++
			recs = append(recs, rec)
		}
		batches = append(batches, recs)
	}
	v, want := buildView(t, batches)
	if v.NumTables() != 5 {
		t.Fatalf("NumTables=%d", v.NumTables())
	}
	checkIterMatches(t, v, want)
}

func TestSeek(t *testing.T) {
	var batches [][]record.Record
	seq := uint64(1)
	for b := 0; b < 3; b++ {
		var recs []record.Record
		for i := b; i < 90; i += 3 {
			recs = append(recs, record.Record{
				Key:   []byte(fmt.Sprintf("key-%04d", i)),
				Seq:   seq,
				Kind:  record.KindSet,
				Value: []byte(fmt.Sprintf("val-%d", i)),
			})
			seq++
		}
		batches = append(batches, recs)
	}
	v, want := buildView(t, batches)

	for _, target := range []string{"", "key-0000", "key-0044", "key-00441", "key-0089", "key-9999"} {
		it := v.NewIterator()
		ok := it.Seek([]byte(target))
		// Reference: first want entry with key >= target.
		wi := sort.Search(len(want), func(i int) bool {
			return bytes.Compare(want[i].Key, []byte(target)) >= 0
		})
		if wi == len(want) {
			if ok {
				t.Fatalf("Seek(%q): expected exhausted, got %q", target, it.Record().Key)
			}
			continue
		}
		if !ok {
			t.Fatalf("Seek(%q): expected %q, got exhausted", target, want[wi].Key)
		}
		if got := it.Record(); !bytes.Equal(got.Key, want[wi].Key) || got.Seq != want[wi].Seq {
			t.Fatalf("Seek(%q): got {%q %d} want {%q %d}", target, got.Key, got.Seq, want[wi].Key, want[wi].Seq)
		}
		// Walk the tail and verify it matches the reference slice.
		for i := wi; ok; ok = it.Next() {
			got := it.Record()
			if !bytes.Equal(got.Key, want[i].Key) || got.Seq != want[i].Seq || !bytes.Equal(got.Value, want[i].Value) {
				t.Fatalf("Seek(%q) walk at %d: got {%q %d} want {%q %d}", target, i, got.Key, got.Seq, want[i].Key, want[i].Seq)
			}
			i++
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
	}
}

func TestSeekLandsOnNewestVersion(t *testing.T) {
	// Two tables carry the same key; Seek must surface the higher seq first.
	k := []byte("dup-key")
	batches := [][]record.Record{
		{{Key: k, Seq: 1, Kind: record.KindSet, Value: []byte("old")}},
		{{Key: k, Seq: 2, Kind: record.KindSet, Value: []byte("new")}},
	}
	v, _ := buildView(t, batches)
	it := v.NewIterator()
	if !it.Seek(k) {
		t.Fatal("seek failed")
	}
	if got := it.Record(); got.Seq != 2 || !bytes.Equal(got.Value, []byte("new")) {
		t.Fatalf("got seq=%d value=%q, want newest first", got.Seq, got.Value)
	}
	if !it.Next() {
		t.Fatal("expected older version next")
	}
	if got := it.Record(); got.Seq != 1 || !bytes.Equal(got.Value, []byte("old")) {
		t.Fatalf("got seq=%d value=%q, want older second", got.Seq, got.Value)
	}
}

func TestVersionsMonotonic(t *testing.T) {
	v1 := New()
	v2 := New()
	if v2.Version() <= v1.Version() {
		t.Fatalf("versions not increasing: %d then %d", v1.Version(), v2.Version())
	}
	fs := vfs.NewMem()
	r := buildTable(t, fs, "t.sst", []record.Record{
		{Key: []byte("a"), Seq: 1, Kind: record.KindSet, Value: []byte("x")},
	})
	entries, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	v3 := v2.WithTable(r, entries)
	if v3.Version() <= v2.Version() {
		t.Fatalf("WithTable version not increasing: %d then %d", v2.Version(), v3.Version())
	}
	// The old view is untouched by the extension.
	if v2.Len() != 0 || v3.Len() != 1 {
		t.Fatalf("v2.Len=%d v3.Len=%d", v2.Len(), v3.Len())
	}
}

func TestMemoryBytesGrows(t *testing.T) {
	var recs []record.Record
	for i := 0; i < 50; i++ {
		recs = append(recs, record.Record{
			Key:   []byte(fmt.Sprintf("key-%04d", i)),
			Seq:   uint64(i + 1),
			Kind:  record.KindSet,
			Value: []byte("v"),
		})
	}
	v, _ := buildView(t, [][]record.Record{recs})
	if v.MemoryBytes() <= 0 {
		t.Fatalf("MemoryBytes=%d", v.MemoryBytes())
	}
	if New().MemoryBytes() != 0 {
		t.Fatal("empty view should report 0 bytes")
	}
}

// TestAgainstMergeIter cross-checks the view iterator against the k-way
// merge it replaces, over randomized overlapping tables.
func TestAgainstMergeIter(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		fs := vfs.NewMem()
		v := New()
		var readers []*sstable.Reader
		seq := uint64(1)
		nTables := 2 + rnd.Intn(7)
		for b := 0; b < nTables; b++ {
			var recs []record.Record
			n := 20 + rnd.Intn(150)
			for i := 0; i < n; i++ {
				kind := record.KindSet
				if rnd.Intn(10) == 0 {
					kind = record.KindDelete
				}
				rec := record.Record{
					Key:  []byte(fmt.Sprintf("k%06d", rnd.Intn(400))),
					Seq:  seq,
					Kind: kind,
				}
				if kind == record.KindSet {
					rec.Value = []byte(fmt.Sprintf("t%d-%d", b, i))
				}
				seq++
				recs = append(recs, rec)
			}
			sortRecs(recs)
			r := buildTable(t, fs, fmt.Sprintf("x%d-%d.sst", trial, b), recs)
			entries, err := Collect(r)
			if err != nil {
				t.Fatal(err)
			}
			v = v.WithTable(r, entries)
			readers = append(readers, r)
		}

		// Reference: mergeiter over per-table iterators (newest table first
		// is irrelevant — Less breaks ties by seq).
		iters := make([]mergeiter.RecIter, len(readers))
		for i, r := range readers {
			iters[i] = r.NewIterator()
		}
		ref := mergeiter.New(iters)
		got := v.NewIterator()
		okR, okG := ref.First(), got.First()
		n := 0
		for okR && okG {
			rr, gr := ref.Record(), got.Record()
			if !bytes.Equal(rr.Key, gr.Key) || rr.Seq != gr.Seq || rr.Kind != gr.Kind || !bytes.Equal(rr.Value, gr.Value) {
				t.Fatalf("trial %d entry %d: merge {%q %d} view {%q %d}", trial, n, rr.Key, rr.Seq, gr.Key, gr.Seq)
			}
			okR, okG = ref.Next(), got.Next()
			n++
		}
		if okR != okG {
			t.Fatalf("trial %d: iterators exhausted at different points (merge=%v view=%v after %d)", trial, okR, okG, n)
		}
		if got.Err() != nil {
			t.Fatal(got.Err())
		}
	}
}

// setRec is a live record whose value names its key and sequence.
func setRec(key string, seq uint64) record.Record {
	return record.Record{Key: []byte(key), Seq: seq, Kind: record.KindSet, Value: []byte(fmt.Sprintf("%s@%d", key, seq))}
}

// TestResetIterator: one iterator reset across views of different table
// counts reads each exactly as a fresh one does, and a reset onto no view
// leaves it referencing no view, table or block.
func TestResetIterator(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	views := make([]*View, 0, 3)
	wants := make([][]record.Record, 0, 3)
	for _, tables := range []int{4, 1, 3} {
		var batches [][]record.Record
		seq := uint64(1)
		for i := 0; i < tables; i++ {
			var recs []record.Record
			for j := 0; j < 30; j++ {
				recs = append(recs, setRec(fmt.Sprintf("k%03d", rnd.Intn(80)), seq))
				seq++
			}
			batches = append(batches, recs)
		}
		v, want := buildView(t, batches)
		views, wants = append(views, v), append(wants, want)
	}
	it := new(Iter)
	for round := 0; round < 2; round++ {
		for i, v := range views {
			v.ResetIterator(it)
			n := 0
			for ok := it.First(); ok; ok = it.Next() {
				if got, w := it.Record(), wants[i][n]; !bytes.Equal(got.Key, w.Key) || got.Seq != w.Seq || !bytes.Equal(got.Value, w.Value) {
					t.Fatalf("view %d record %d: %s@%d want %s@%d", i, n, got.Key, got.Seq, w.Key, w.Seq)
				}
				n++
			}
			if n != len(wants[i]) || it.Err() != nil {
				t.Fatalf("view %d: %d of %d records, %v", i, n, len(wants[i]), it.Err())
			}
		}
	}
	(*View)(nil).ResetIterator(it)
	if it.v != nil || it.rec.Key != nil || it.rec.Value != nil {
		t.Fatal("an iterator reset onto no view still references the last one")
	}
	for i, b := range it.blocks[:cap(it.blocks)] {
		if b.Valid() {
			t.Fatalf("an iterator reset onto no view still holds table %d's block", i)
		}
	}
}

// benchView is a view over four overlapping tables of 1024 records each.
func benchView(b *testing.B) (*View, []record.Record) {
	rnd := rand.New(rand.NewSource(9))
	batches := make([][]record.Record, 4)
	seq := uint64(1)
	for i := range batches {
		for j := 0; j < 1024; j++ {
			batches[i] = append(batches[i], setRec(fmt.Sprintf("key-%06d", rnd.Intn(8192)), seq))
			seq++
		}
	}
	return buildView(b, batches)
}

// BenchmarkSeekNext is a short scan's walk of the view over cache-resident
// blocks: reset an iterator onto it, Seek to a random key, take 16 records.
func BenchmarkSeekNext(b *testing.B) {
	v, all := benchView(b)
	c := cache.New(8<<20, 0)
	for i, r := range v.tables {
		r.SetCache(c, uint64(i+1))
	}
	it := v.NewIterator()
	for ok := it.First(); ok; ok = it.Next() { // fills the cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.ResetIterator(it)
		ok := it.Seek(all[i*7919%len(all)].Key)
		for n := 0; ok && n < 16; n++ {
			ok = it.Next()
		}
		if it.Err() != nil {
			b.Fatal(it.Err())
		}
	}
}

// BenchmarkWithTable is a flush's view extension: merging a 1024-entry
// table into a view of four.
func BenchmarkWithTable(b *testing.B) {
	v, _ := benchView(b)
	recs := make([]record.Record, 1024)
	for j := range recs {
		recs[j] = setRec(fmt.Sprintf("key-%06d", j*8), uint64(1<<20+j))
	}
	sortRecs(recs)
	r := buildTable(b, vfs.NewMem(), "extra.sst", recs)
	entries, err := Collect(r)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchViewSink = v.WithTable(r, entries)
	}
}

var benchViewSink *View
