package memtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"unikv/internal/record"
)

func rec(key string, seq uint64, val string) record.Record {
	return record.Record{Key: []byte(key), Seq: seq, Kind: record.KindSet, Value: []byte(val)}
}

func TestPutGet(t *testing.T) {
	m := New()
	m.Put(rec("b", 1, "v1"))
	m.Put(rec("a", 2, "v2"))
	m.Put(rec("c", 3, "v3"))

	for _, c := range []struct{ k, v string }{{"a", "v2"}, {"b", "v1"}, {"c", "v3"}} {
		got, ok := m.Get([]byte(c.k))
		if !ok || string(got.Value) != c.v {
			t.Fatalf("Get(%q) = %q, %v", c.k, got.Value, ok)
		}
	}
	if _, ok := m.Get([]byte("zz")); ok {
		t.Fatal("found missing key")
	}
}

func TestNewestVersionWins(t *testing.T) {
	m := New()
	m.Put(rec("k", 1, "old"))
	m.Put(rec("k", 5, "new"))
	m.Put(rec("k", 3, "mid"))
	got, ok := m.Get([]byte("k"))
	if !ok || string(got.Value) != "new" || got.Seq != 5 {
		t.Fatalf("got %+v", got)
	}
}

func TestDeleteRecord(t *testing.T) {
	m := New()
	m.Put(rec("k", 1, "v"))
	m.Put(record.Record{Key: []byte("k"), Seq: 2, Kind: record.KindDelete})
	got, ok := m.Get([]byte("k"))
	if !ok || got.Kind != record.KindDelete {
		t.Fatalf("expected tombstone, got %+v ok=%v", got, ok)
	}
}

func TestIteratorOrder(t *testing.T) {
	m := New()
	keys := []string{"delta", "alpha", "charlie", "bravo", "echo"}
	for i, k := range keys {
		m.Put(rec(k, uint64(i+1), "v-"+k))
	}
	it := m.NewIterator()
	var got []string
	for ok := it.First(); ok; ok = it.Next() {
		got = append(got, string(it.Record().Key))
	}
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order mismatch at %d: %v vs %v", i, got, want)
		}
	}
}

func TestIteratorVersionsNewestFirst(t *testing.T) {
	m := New()
	m.Put(rec("k", 1, "v1"))
	m.Put(rec("k", 2, "v2"))
	it := m.NewIterator()
	if !it.First() {
		t.Fatal("empty iterator")
	}
	if it.Record().Seq != 2 {
		t.Fatalf("first version seq=%d want 2", it.Record().Seq)
	}
	if !it.Next() || it.Record().Seq != 1 {
		t.Fatalf("second version wrong")
	}
}

func TestIteratorSeek(t *testing.T) {
	m := New()
	for _, k := range []string{"a", "c", "e"} {
		m.Put(rec(k, 1, "v"))
	}
	it := m.NewIterator()
	if !it.Seek([]byte("b")) || string(it.Record().Key) != "c" {
		t.Fatalf("Seek(b) -> %q", it.Record().Key)
	}
	if !it.Seek([]byte("c")) || string(it.Record().Key) != "c" {
		t.Fatalf("Seek(c) -> %q", it.Record().Key)
	}
	if it.Seek([]byte("f")) {
		t.Fatal("Seek past end should be invalid")
	}
}

func TestSizeAndLen(t *testing.T) {
	m := New()
	if !m.Empty() {
		t.Fatal("new memtable not empty")
	}
	m.Put(rec("a", 1, "0123456789"))
	if m.Len() != 1 {
		t.Fatalf("Len=%d", m.Len())
	}
	if m.Size() < 11 {
		t.Fatalf("Size=%d too small", m.Size())
	}
	if m.MaxSeq() != 1 {
		t.Fatalf("MaxSeq=%d", m.MaxSeq())
	}
	if m.Empty() {
		t.Fatal("memtable with data reported empty")
	}
}

// TestAgainstModel is the property test: a random op sequence applied to
// the memtable and to a plain list of records must agree on every lookup.
// Sequence numbers are a shuffled permutation, so one key's versions arrive
// out of order; reads run at the newest version and at random pins, for
// present and absent keys, and iteration and Seek must reproduce the list
// sorted by (key asc, seq desc) record for record.
func TestAgainstModel(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		const puts = 500
		m := New()
		var model []record.Record
		for i, s := range rnd.Perm(puts) {
			r := rec(fmt.Sprintf("key-%03d", rnd.Intn(80)), uint64(s+1), fmt.Sprintf("val-%d", i))
			m.Put(r)
			model = append(model, r)
		}
		sort.Slice(model, func(i, j int) bool {
			if c := bytes.Compare(model[i].Key, model[j].Key); c != 0 {
				return c < 0
			}
			return model[i].Seq > model[j].Seq
		})
		// want is the reference read: the newest version of key at or
		// below pin (model is sorted, so the first one met).
		want := func(key []byte, pin uint64) (record.Record, bool) {
			for _, r := range model {
				if bytes.Equal(r.Key, key) && r.Seq <= pin {
					return r, true
				}
			}
			return record.Record{}, false
		}
		same := func(a, b record.Record) bool {
			return bytes.Equal(a.Key, b.Key) && a.Seq == b.Seq && a.Kind == b.Kind && bytes.Equal(a.Value, b.Value)
		}
		for i := 0; i < 300; i++ {
			// Keys 80..99 are never written.
			key := []byte(fmt.Sprintf("key-%03d", rnd.Intn(100)))
			pin := uint64(rnd.Intn(puts + 2))
			w, wok := want(key, ^uint64(0))
			if g, ok := m.Get(key); ok != wok || ok && !same(g, w) {
				t.Logf("Get(%s) = %+v %v, want %+v %v", key, g, ok, w, wok)
				return false
			}
			w, wok = want(key, pin)
			if g, ok := m.GetAtSeq(key, pin); ok != wok || ok && !same(g, w) {
				t.Logf("GetAtSeq(%s, %d) = %+v %v, want %+v %v", key, pin, g, ok, w, wok)
				return false
			}
		}
		it := m.NewIterator()
		i := 0
		for ok := it.First(); ok; ok = it.Next() {
			if i >= len(model) || !same(it.Record(), model[i]) {
				t.Logf("record %d of the iteration is %+v", i, it.Record())
				return false
			}
			i++
		}
		if i != len(model) || m.Len() != len(model) {
			t.Logf("iterated %d records, Len %d, want %d", i, m.Len(), len(model))
			return false
		}
		for i := 0; i < 100; i++ {
			target := []byte(fmt.Sprintf("key-%03d%s", rnd.Intn(101), []string{"", "\x00", "~"}[rnd.Intn(3)]))
			at := sort.Search(len(model), func(j int) bool { return bytes.Compare(model[j].Key, target) >= 0 })
			ok := it.Seek(target)
			for j := at; j < min(at+5, len(model)); j++ {
				if !ok || !same(it.Record(), model[j]) {
					t.Logf("Seek(%q) step %d: valid %v, want %+v", target, j-at, ok, model[j])
					return false
				}
				ok = it.Next()
			}
			if at+5 >= len(model) && ok {
				t.Logf("Seek(%q) ran past the last record", target)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestEqualSequenceShadows pins the rule for a repeated (key, seq): the
// later Put goes ahead of the earlier one, reads return it, and iteration
// yields both.
func TestEqualSequenceShadows(t *testing.T) {
	m := New()
	m.Put(rec("k", 5, "first"))
	m.Put(rec("k", 3, "older"))
	m.Put(rec("k", 5, "second"))
	for _, got := range []func() (record.Record, bool){
		func() (record.Record, bool) { return m.Get([]byte("k")) },
		func() (record.Record, bool) { return m.GetAtSeq([]byte("k"), 5) },
	} {
		if r, ok := got(); !ok || string(r.Value) != "second" {
			t.Fatalf("read %q %v, want the later Put", r.Value, ok)
		}
	}
	var vals []string
	it := m.NewIterator()
	for ok := it.First(); ok; ok = it.Next() {
		vals = append(vals, string(it.Record().Value))
	}
	if fmt.Sprint(vals) != "[second first older]" || m.Len() != 3 {
		t.Fatalf("iteration %v, Len %d", vals, m.Len())
	}
}

// TestFingerprintCollisions fills the key table to 2^17 keys, where the
// fingerprint bits below a slot's home bits are few enough that absent keys
// meet equal fingerprints: a probe must still compare keys, never trust the
// fingerprint alone.
func TestFingerprintCollisions(t *testing.T) {
	const n = 1 << 17
	m := New()
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%07d", i)) }
	for i := 0; i < n; i++ {
		m.Put(record.Record{Key: key(2 * i), Seq: uint64(i + 1), Kind: record.KindSet})
	}
	for i := 0; i < 2*n; i++ {
		r, ok := m.Get(key(i))
		if ok != (i%2 == 0) || ok && !bytes.Equal(r.Key, key(i)) {
			t.Fatalf("Get(%s) = %s, %v", key(i), r.Key, ok)
		}
	}
}

// TestConcurrentPinnedReaders runs one writer that overwrites and inserts
// (growing the key table several times) beside readers pinned at the
// memtable's MaxSeq when they start. The writer's sequences ascend, so a
// pinned reader's view is complete and fixed: iteration must stay in
// (key asc, seq desc) order, meet each sequence up to the pin exactly once,
// and agree with GetAtSeq at the pin, which never returns a later record.
func TestConcurrentPinnedReaders(t *testing.T) {
	const initial, writes, readers = 200, 20000, 4
	m := New()
	val := func(key []byte, seq uint64) []byte { return []byte(fmt.Sprintf("%s@%d", key, seq)) }
	keys := 0
	put := func(rnd *rand.Rand, seq uint64) { // half inserts, half overwrites
		k := keys
		if rnd.Intn(2) == 0 && keys > 0 {
			k = rnd.Intn(keys)
		} else {
			keys++
		}
		key := []byte(fmt.Sprintf("k%06d", k))
		m.Put(record.Record{Key: key, Seq: seq, Kind: record.KindSet, Value: val(key, seq)})
	}
	wrnd := rand.New(rand.NewSource(1))
	for seq := uint64(1); seq <= initial; seq++ {
		put(wrnd, seq)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for seq := uint64(initial + 1); seq <= initial+writes; seq++ {
			put(wrnd, seq)
		}
	}()
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(g)))
			check := func() error {
				pin := m.MaxSeq()
				seen := make(map[uint64]bool, pin)
				it := m.NewIterator()
				var prev record.Record
				ok := it.First()
				if g%2 == 1 { // half the passes start from a random key
					ok = it.Seek([]byte(fmt.Sprintf("k%06d", rnd.Intn(initial))))
				}
				for ; ok; ok = it.Next() {
					r := it.Record()
					if prev.Key != nil {
						if c := bytes.Compare(prev.Key, r.Key); c > 0 || c == 0 && prev.Seq <= r.Seq {
							return fmt.Errorf("%s@%d after %s@%d", r.Key, r.Seq, prev.Key, prev.Seq)
						}
					}
					prev = r
					if r.Seq > pin {
						continue
					}
					if seen[r.Seq] || !bytes.Equal(r.Value, val(r.Key, r.Seq)) {
						return fmt.Errorf("record %s@%d repeated or damaged", r.Key, r.Seq)
					}
					seen[r.Seq] = true
					if got, ok := m.GetAtSeq(r.Key, pin); !ok || got.Seq > pin || got.Seq < r.Seq {
						return fmt.Errorf("GetAtSeq(%s, %d) = seq %d %v beside %s@%d", r.Key, pin, got.Seq, ok, r.Key, r.Seq)
					}
				}
				if g%2 == 0 && uint64(len(seen)) != pin {
					return fmt.Errorf("pinned at %d, met %d sequences", pin, len(seen))
				}
				return nil
			}
			for {
				if err := check(); err != nil {
					errs <- err
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestConcurrentReaders(t *testing.T) {
	m := New()
	for i := 0; i < 1000; i++ {
		m.Put(rec(fmt.Sprintf("k%04d", i), uint64(i+1), "v"))
	}
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 1000; i++ {
				if _, ok := m.Get([]byte(fmt.Sprintf("k%04d", i))); !ok {
					t.Error("missing key during concurrent read")
					break
				}
			}
			done <- true
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// benchRecords returns n records with 24-byte keys in a seeded random
// order and 1 KiB values — the perf ledger's record shape.
func benchRecords(n int) []record.Record {
	rnd := rand.New(rand.NewSource(1))
	val := make([]byte, 1024)
	rnd.Read(val)
	recs := make([]record.Record, n)
	for i, k := range rnd.Perm(n) {
		recs[i] = record.Record{Key: []byte(fmt.Sprintf("user%020d", k)), Seq: uint64(i + 1), Kind: record.KindSet, Value: val}
	}
	return recs
}

// benchFill is one engine memtable's worth of records: 4 MiB of 1 KiB values.
const benchFill = 4096

var benchSink record.Record

// BenchmarkPut fills memtables the way the engine does: benchFill inserts,
// then a fresh table.
func BenchmarkPut(b *testing.B) {
	recs := benchRecords(benchFill)
	b.ReportAllocs()
	b.SetBytes(1024)
	b.ResetTimer()
	var m *Memtable
	for i := 0; i < b.N; i++ {
		if i%benchFill == 0 {
			m = New()
		}
		m.Put(recs[i%benchFill])
	}
}

func benchTable() (*Memtable, []record.Record) {
	recs := benchRecords(benchFill)
	m := New()
	for _, r := range recs {
		m.Put(r)
	}
	return m, recs
}

func BenchmarkGet(b *testing.B) {
	m, recs := benchTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, ok := m.Get(recs[i%benchFill].Key)
		if !ok {
			b.Fatal("missing key")
		}
		benchSink = r
	}
}

// BenchmarkIterate reports the cost per record of a full in-order walk
// (what a flush pays).
func BenchmarkIterate(b *testing.B) {
	m, _ := benchTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += benchFill {
		it := m.NewIterator()
		for ok := it.First(); ok; ok = it.Next() {
			benchSink = it.Record()
		}
	}
}

// BenchmarkGetMiss looks up keys of the same shape that the table does not
// hold — what a Get pays in every memtable it passes on the way to a
// table.
func BenchmarkGetMiss(b *testing.B) {
	m, recs := benchTable()
	absent := make([][]byte, len(recs))
	for i, r := range recs {
		absent[i] = append([]byte("absent"), r.Key[len("absent"):]...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Get(absent[i%benchFill]); ok {
			b.Fatal("found an absent key")
		}
	}
}

// BenchmarkPutOverwrite overwrites zipfian-chosen keys of a full table:
// each round of benchFill puts starts from a fresh table holding every key
// once, as an update workload's memtable does after its first flush.
func BenchmarkPutOverwrite(b *testing.B) {
	recs := benchRecords(benchFill)
	zipf := rand.NewZipf(rand.New(rand.NewSource(2)), 1.1, 1, benchFill-1)
	order := make([]record.Record, benchFill)
	for i := range order {
		order[i] = recs[zipf.Uint64()]
		order[i].Seq = uint64(benchFill + i + 1)
	}
	b.ReportAllocs()
	b.SetBytes(1024)
	b.ResetTimer()
	var m *Memtable
	for i := 0; i < b.N; i++ {
		if i%benchFill == 0 {
			b.StopTimer()
			m, _ = benchTable()
			b.StartTimer()
		}
		m.Put(order[i%benchFill])
	}
}

// BenchmarkSeekNext is a 100-record range read: a Seek to a present key,
// then 100 Next calls. One op is the whole range.
func BenchmarkSeekNext(b *testing.B) {
	m, recs := benchTable()
	it := m.NewIterator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok := it.Seek(recs[i%benchFill].Key)
		for j := 0; j < 100 && ok; j++ {
			benchSink = it.Record()
			ok = it.Next()
		}
	}
}
