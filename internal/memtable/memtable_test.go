package memtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
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

// TestAgainstModel is the property test: a random op sequence applied to the
// skiplist and a Go map must agree on every lookup.
func TestAgainstModel(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		m := New()
		model := map[string]string{}
		seq := uint64(0)
		for i := 0; i < 500; i++ {
			k := fmt.Sprintf("key-%03d", rnd.Intn(80))
			v := fmt.Sprintf("val-%d", rnd.Int63())
			seq++
			m.Put(rec(k, seq, v))
			model[k] = v
		}
		for k, v := range model {
			got, ok := m.Get([]byte(k))
			if !ok || string(got.Value) != v {
				return false
			}
		}
		// Iteration yields keys in sorted order with newest version first
		// per key.
		it := m.NewIterator()
		var prevKey []byte
		var prevSeq uint64
		for ok := it.First(); ok; ok = it.Next() {
			r := it.Record()
			if prevKey != nil {
				c := bytes.Compare(prevKey, r.Key)
				if c > 0 {
					return false
				}
				if c == 0 && prevSeq <= r.Seq {
					return false
				}
			}
			prevKey = append(prevKey[:0], r.Key...)
			prevSeq = r.Seq
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
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
