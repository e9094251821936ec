package mergeiter

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"unikv/internal/record"
)

// sliceIter is an in-memory RecIter over pre-sorted records.
type sliceIter struct {
	recs []record.Record
	pos  int
}

func (s *sliceIter) First() bool { s.pos = 0; return s.pos < len(s.recs) }
func (s *sliceIter) Next() bool  { s.pos++; return s.pos < len(s.recs) }
func (s *sliceIter) Valid() bool { return s.pos >= 0 && s.pos < len(s.recs) }
func (s *sliceIter) Seek(t []byte) bool {
	s.pos = sort.Search(len(s.recs), func(i int) bool {
		return bytes.Compare(s.recs[i].Key, t) >= 0
	})
	return s.pos < len(s.recs)
}
func (s *sliceIter) Record() record.Record { return s.recs[s.pos] }

// linearIter is the merge as it was before it cached each input's record:
// every step asks every input whether it is valid and for its record. It is
// the reference the cached-record merge must match, record for record.
type linearIter struct {
	iters []*sliceIter
	cur   int
}

func (m *linearIter) pick() bool {
	m.cur = -1
	for i, it := range m.iters {
		if !it.Valid() {
			continue
		}
		if m.cur < 0 {
			m.cur = i
			continue
		}
		a, b := it.Record(), m.iters[m.cur].Record()
		if Less(a.Key, a.Seq, b.Key, b.Seq) {
			m.cur = i
		}
	}
	return m.cur >= 0
}

func (m *linearIter) First() bool {
	for _, it := range m.iters {
		it.First()
	}
	return m.pick()
}

func (m *linearIter) Seek(target []byte) bool {
	for _, it := range m.iters {
		it.Seek(target)
	}
	return m.pick()
}

func (m *linearIter) Next() bool {
	if m.cur >= 0 {
		m.iters[m.cur].Next()
	}
	return m.pick()
}

func (m *linearIter) Record() record.Record { return m.iters[m.cur].Record() }

// sameStream walks m and the linear reference in lockstep from their first
// positioning call and fails at the first record they disagree on.
func sameStream(t *testing.T, what string, m *Iter, mOK bool, ref *linearIter, refOK bool) {
	t.Helper()
	for i := 0; mOK || refOK; i++ {
		if mOK != refOK {
			t.Fatalf("%s: record %d: merge valid=%v, linear reference valid=%v", what, i, mOK, refOK)
		}
		a, b := m.Record(), ref.Record()
		if !bytes.Equal(a.Key, b.Key) || a.Seq != b.Seq || a.Kind != b.Kind || !bytes.Equal(a.Value, b.Value) {
			t.Fatalf("%s: record %d: merge %s@%d/%d, linear reference %s@%d/%d", what, i, a.Key, a.Seq, a.Kind, b.Key, b.Seq, b.Kind)
		}
		mOK, refOK = m.Next(), ref.Next()
	}
}

func mk(key string, seq uint64) record.Record {
	return record.Record{Key: []byte(key), Seq: seq, Kind: record.KindSet,
		Value: []byte(fmt.Sprintf("%s@%d", key, seq))}
}

func TestMergeOrder(t *testing.T) {
	a := &sliceIter{recs: []record.Record{mk("a", 1), mk("c", 3), mk("e", 5)}}
	b := &sliceIter{recs: []record.Record{mk("b", 2), mk("c", 9), mk("d", 4)}}
	m := New([]RecIter{a, b})
	var got []string
	for ok := m.First(); ok; ok = m.Next() {
		got = append(got, fmt.Sprintf("%s@%d", m.Record().Key, m.Record().Seq))
	}
	want := []string{"a@1", "b@2", "c@9", "c@3", "d@4", "e@5"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("at %d: %v want %v", i, got, want)
		}
	}
}

func TestMergeSeek(t *testing.T) {
	a := &sliceIter{recs: []record.Record{mk("a", 1), mk("m", 2), mk("z", 3)}}
	b := &sliceIter{recs: []record.Record{mk("c", 4), mk("n", 5)}}
	m := New([]RecIter{a, b})
	if !m.Seek([]byte("m")) || string(m.Record().Key) != "m" {
		t.Fatalf("Seek(m): %q", m.Record().Key)
	}
	if !m.Next() || string(m.Record().Key) != "n" {
		t.Fatalf("next after seek")
	}
	if m.Seek([]byte("zz")) {
		t.Fatal("seek past end")
	}
}

func TestDedupNewestWins(t *testing.T) {
	a := &sliceIter{recs: []record.Record{mk("k", 5), mk("x", 1)}}
	b := &sliceIter{recs: []record.Record{mk("k", 9), mk("k", 2)}}
	d := NewDedup(New([]RecIter{a, b}))
	if !d.First() {
		t.Fatal("empty")
	}
	if d.Record().Seq != 9 || string(d.Record().Key) != "k" {
		t.Fatalf("first: %s@%d", d.Record().Key, d.Record().Seq)
	}
	if !d.Next() || string(d.Record().Key) != "x" {
		t.Fatalf("second")
	}
	if d.Next() {
		t.Fatal("phantom third")
	}
}

func TestEmptyInputs(t *testing.T) {
	m := New([]RecIter{&sliceIter{}, &sliceIter{}})
	if m.First() || m.Valid() {
		t.Fatal("empty merge valid")
	}
	m2 := New(nil)
	if m2.First() {
		t.Fatal("no-input merge valid")
	}
	d := NewDedup(New([]RecIter{&sliceIter{}}))
	if d.First() {
		t.Fatal("empty dedup valid")
	}
}

func mkDel(key string, seq uint64) record.Record {
	return record.Record{Key: []byte(key), Seq: seq, Kind: record.KindDelete}
}

// TestManyTables merges 40 heavily overlapping tables — the UnsortedStore
// shape the engine's scans hit at high table counts — and cross-checks the
// full versioned stream against a reference sort, record for record.
func TestManyTables(t *testing.T) {
	const nTables = 40
	rnd := rand.New(rand.NewSource(7))
	var all []record.Record
	var iters []RecIter
	seq := uint64(1)
	for i := 0; i < nTables; i++ {
		var recs []record.Record
		// Every table draws from the same 64-key space, so nearly every
		// key appears in many tables.
		for j := 0; j < 24; j++ {
			recs = append(recs, mk(fmt.Sprintf("key-%03d", rnd.Intn(64)), seq))
			seq++
		}
		sort.Slice(recs, func(a, b int) bool {
			return Less(recs[a].Key, recs[a].Seq, recs[b].Key, recs[b].Seq)
		})
		iters = append(iters, &sliceIter{recs: recs})
		all = append(all, recs...)
	}
	sort.Slice(all, func(a, b int) bool {
		return Less(all[a].Key, all[a].Seq, all[b].Key, all[b].Seq)
	})
	m := New(iters)
	i := 0
	for ok := m.First(); ok; ok = m.Next() {
		r := m.Record()
		if !bytes.Equal(r.Key, all[i].Key) || r.Seq != all[i].Seq {
			t.Fatalf("record %d: got %s@%d want %s@%d", i, r.Key, r.Seq, all[i].Key, all[i].Seq)
		}
		i++
	}
	if i != len(all) {
		t.Fatalf("merged %d of %d records", i, len(all))
	}

	// Newest-wins across all 40 tables: dedup must yield exactly the
	// highest sequence per key.
	want := map[string]uint64{}
	for _, r := range all {
		if s, ok := want[string(r.Key)]; !ok || r.Seq > s {
			want[string(r.Key)] = r.Seq
		}
	}
	for _, it := range iters {
		it.(*sliceIter).pos = 0
	}
	d := NewDedup(New(iters))
	n := 0
	for ok := d.First(); ok; ok = d.Next() {
		if want[string(d.Record().Key)] != d.Record().Seq {
			t.Fatalf("dedup %s: got seq %d want %d", d.Record().Key, d.Record().Seq, want[string(d.Record().Key)])
		}
		n++
	}
	if n != len(want) {
		t.Fatalf("dedup yielded %d keys, want %d", n, len(want))
	}
}

// TestDeleteShadowing: a newer tombstone must surface before (and via
// dedup, instead of) every older live version of its key, across tables.
func TestDeleteShadowing(t *testing.T) {
	a := &sliceIter{recs: []record.Record{mk("k", 3), mk("m", 1)}}
	b := &sliceIter{recs: []record.Record{mkDel("k", 7), mk("n", 2)}}
	c := &sliceIter{recs: []record.Record{mk("k", 5)}}

	// Raw merge: k@7(del), k@5, k@3, m@1, n@2.
	m := New([]RecIter{a, b, c})
	type kv struct {
		key  string
		seq  uint64
		kind record.Kind
	}
	var got []kv
	for ok := m.First(); ok; ok = m.Next() {
		r := m.Record()
		got = append(got, kv{string(r.Key), r.Seq, r.Kind})
	}
	want := []kv{
		{"k", 7, record.KindDelete},
		{"k", 5, record.KindSet},
		{"k", 3, record.KindSet},
		{"m", 1, record.KindSet},
		{"n", 2, record.KindSet},
	}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("at %d: got %v want %v", i, got[i], want[i])
		}
	}

	// Dedup: the tombstone is the surviving version of k — a scanner
	// consuming this stream drops the key entirely.
	for _, it := range []*sliceIter{a, b, c} {
		it.pos = 0
	}
	d := NewDedup(New([]RecIter{a, b, c}))
	if !d.First() || string(d.Record().Key) != "k" || d.Record().Kind != record.KindDelete || d.Record().Seq != 7 {
		t.Fatalf("dedup first: %s@%d kind=%d", d.Record().Key, d.Record().Seq, d.Record().Kind)
	}
	if !d.Next() || string(d.Record().Key) != "m" {
		t.Fatal("dedup second")
	}
	if !d.Next() || string(d.Record().Key) != "n" {
		t.Fatal("dedup third")
	}
	if d.Next() {
		t.Fatal("phantom after n")
	}
}

// TestQuickAgainstSort merges random pre-sorted runs and checks against a
// globally sorted reference, both raw and deduped.
func TestQuickAgainstSort(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		nIters := rnd.Intn(6) + 1
		var all []record.Record
		var iters []RecIter
		seq := uint64(1)
		for i := 0; i < nIters; i++ {
			n := rnd.Intn(50)
			var recs []record.Record
			for j := 0; j < n; j++ {
				recs = append(recs, mk(fmt.Sprintf("key-%03d", rnd.Intn(60)), seq))
				seq++
			}
			sort.Slice(recs, func(a, b int) bool {
				return Less(recs[a].Key, recs[a].Seq, recs[b].Key, recs[b].Seq)
			})
			iters = append(iters, &sliceIter{recs: recs})
			all = append(all, recs...)
		}
		sort.Slice(all, func(a, b int) bool {
			return Less(all[a].Key, all[a].Seq, all[b].Key, all[b].Seq)
		})
		m := New(iters)
		i := 0
		for ok := m.First(); ok; ok = m.Next() {
			r := m.Record()
			if i >= len(all) || !bytes.Equal(r.Key, all[i].Key) || r.Seq != all[i].Seq {
				return false
			}
			i++
		}
		if i != len(all) || m.Err() != nil {
			return false
		}
		// Dedup: newest per key.
		want := map[string]uint64{}
		for _, r := range all {
			if s, ok := want[string(r.Key)]; !ok || r.Seq > s {
				want[string(r.Key)] = r.Seq
			}
		}
		for _, it := range iters {
			it.(*sliceIter).pos = 0
		}
		d := NewDedup(New(iters))
		n := 0
		for ok := d.First(); ok; ok = d.Next() {
			if want[string(d.Record().Key)] != d.Record().Seq {
				return false
			}
			n++
		}
		return n == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// FuzzMergeRandomOverlap drives the merge with fuzzer-chosen table counts,
// key-space widths, and tombstone rates, so table overlap ranges from
// disjoint (wide key space, few tables) to total (narrow space, many
// tables). Checks the full stream, a Seek from a random point, and dedup
// against references computed independently.
func FuzzMergeRandomOverlap(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(8), uint8(0))
	f.Add(int64(2), uint8(33), uint8(16), uint8(30))
	f.Add(int64(3), uint8(64), uint8(4), uint8(80))
	f.Add(int64(4), uint8(1), uint8(1), uint8(100))
	f.Fuzz(func(t *testing.T, seed int64, nTables, keySpace, delPct uint8) {
		if nTables == 0 {
			nTables = 1
		}
		if keySpace == 0 {
			keySpace = 1
		}
		rnd := rand.New(rand.NewSource(seed))
		var all []record.Record
		var iters []RecIter
		seq := uint64(1)
		for i := 0; i < int(nTables); i++ {
			n := rnd.Intn(20)
			var recs []record.Record
			for j := 0; j < n; j++ {
				key := fmt.Sprintf("key-%03d", rnd.Intn(int(keySpace)))
				if rnd.Intn(100) < int(delPct) {
					recs = append(recs, mkDel(key, seq))
				} else {
					recs = append(recs, mk(key, seq))
				}
				seq++
			}
			sort.Slice(recs, func(a, b int) bool {
				return Less(recs[a].Key, recs[a].Seq, recs[b].Key, recs[b].Seq)
			})
			iters = append(iters, &sliceIter{recs: recs})
			all = append(all, recs...)
		}
		sort.Slice(all, func(a, b int) bool {
			return Less(all[a].Key, all[a].Seq, all[b].Key, all[b].Seq)
		})

		// The cached-record merge against the linear pick it replaced, over
		// inputs of their own: the full stream, a Seek from every key of the
		// space (and past it), and the same after a Reset onto fresh inputs.
		refIters := make([]*sliceIter, len(iters))
		for i, it := range iters {
			refIters[i] = &sliceIter{recs: it.(*sliceIter).recs}
		}
		ref := &linearIter{iters: refIters}
		cached := New(iters)
		sameStream(t, "first", cached, cached.First(), ref, ref.First())
		for k := 0; k <= int(keySpace); k++ {
			target := []byte(fmt.Sprintf("key-%03d", k))
			sameStream(t, fmt.Sprintf("seek(%s)", target), cached, cached.Seek(target), ref, ref.Seek(target))
		}
		fresh := make([]RecIter, len(iters))
		for i, it := range iters {
			fresh[i] = &sliceIter{recs: it.(*sliceIter).recs}
		}
		cached.Reset(fresh)
		sameStream(t, "first after Reset", cached, cached.First(), ref, ref.First())

		m := New(iters)
		i := 0
		for ok := m.First(); ok; ok = m.Next() {
			r := m.Record()
			if i >= len(all) {
				t.Fatalf("merge yielded more than %d records", len(all))
			}
			if !bytes.Equal(r.Key, all[i].Key) || r.Seq != all[i].Seq || r.Kind != all[i].Kind {
				t.Fatalf("record %d: got %s@%d/%d want %s@%d/%d",
					i, r.Key, r.Seq, r.Kind, all[i].Key, all[i].Seq, all[i].Kind)
			}
			i++
		}
		if i != len(all) {
			t.Fatalf("merged %d of %d records", i, len(all))
		}

		// Seek from a random target must land on the reference suffix.
		target := []byte(fmt.Sprintf("key-%03d", rnd.Intn(int(keySpace))))
		j := sort.Search(len(all), func(i int) bool {
			return bytes.Compare(all[i].Key, target) >= 0
		})
		for ok := m.Seek(target); ok; ok = m.Next() {
			r := m.Record()
			if j >= len(all) || !bytes.Equal(r.Key, all[j].Key) || r.Seq != all[j].Seq {
				t.Fatalf("seek(%s) diverged at reference index %d", target, j)
			}
			j++
		}
		if j != len(all) {
			t.Fatalf("seek walk stopped at %d of %d", j, len(all))
		}

		// Dedup: newest version per key, tombstones included.
		newest := map[string]record.Record{}
		for _, r := range all {
			if prev, ok := newest[string(r.Key)]; !ok || r.Seq > prev.Seq {
				newest[string(r.Key)] = r
			}
		}
		for _, it := range iters {
			it.(*sliceIter).pos = 0
		}
		d := NewDedup(New(iters))
		n := 0
		for ok := d.First(); ok; ok = d.Next() {
			r := d.Record()
			w := newest[string(r.Key)]
			if r.Seq != w.Seq || r.Kind != w.Kind {
				t.Fatalf("dedup %s: got @%d/%d want @%d/%d", r.Key, r.Seq, r.Kind, w.Seq, w.Kind)
			}
			n++
		}
		if n != len(newest) {
			t.Fatalf("dedup yielded %d keys, want %d", n, len(newest))
		}
	})
}

// benchRuns deals n records round-robin into k sorted runs, so consecutive
// keys sit in different runs and every merge step advances another input.
func benchRuns(k, n int) []RecIter {
	runs := make([][]record.Record, k)
	for j := 0; j < n; j++ {
		runs[j%k] = append(runs[j%k], mk(fmt.Sprintf("key-%08d", j), uint64(j+1)))
	}
	iters := make([]RecIter, k)
	for i, r := range runs {
		iters[i] = &sliceIter{recs: r}
	}
	return iters
}

var benchRec record.Record

// BenchmarkNext is one merge step (ns/op per record) over k in-memory runs,
// restarting at the first record when the merge runs out.
func BenchmarkNext(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			m := New(benchRuns(k, 4096))
			b.ReportAllocs()
			b.ResetTimer()
			ok := m.First()
			for i := 0; i < b.N; i++ {
				if !ok {
					ok = m.First()
				}
				benchRec = m.Record()
				ok = m.Next()
			}
		})
	}
}

// BenchmarkSeek positions an 8-run merge at a random key, as a scan starts.
func BenchmarkSeek(b *testing.B) {
	const n = 4096
	m := New(benchRuns(8, n))
	rnd := rand.New(rand.NewSource(1))
	targets := make([][]byte, 1024)
	for i := range targets {
		targets[i] = []byte(fmt.Sprintf("key-%08d", rnd.Intn(n)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.Seek(targets[i%len(targets)]) {
			b.Fatal("seek to a present key ran out")
		}
		benchRec = m.Record()
	}
}
