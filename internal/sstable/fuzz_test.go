package sstable

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"unikv/internal/cache"
	"unikv/internal/record"
	"unikv/internal/vfs"
)

// FuzzOpen: arbitrary file bytes must never panic Open or subsequent reads.
func FuzzOpen(f *testing.F) {
	// Seed with a real table.
	fs := vfs.NewMem()
	fh, _ := fs.Create("seed")
	b := NewBuilder(fh, BuilderOptions{BloomBitsPerKey: 10})
	for i := 0; i < 50; i++ {
		b.Add(record.Record{Key: []byte{byte(i)}, Seq: uint64(i + 1), Kind: record.KindSet, Value: []byte("v")})
	}
	b.Finish()
	fh.Close()
	seed, _ := fs.ReadFile("seed")
	f.Add(seed)
	f.Add([]byte{})
	f.Add(make([]byte, footerLen))

	f.Fuzz(func(t *testing.T, data []byte) {
		fs := vfs.NewMem()
		fs.WriteFile("t.sst", data)
		fh, _ := fs.Open("t.sst")
		r, err := Open(fh)
		if err != nil {
			fh.Close()
			return
		}
		defer r.Close()
		// Exercise the read paths; they may error but must not panic.
		r.Get([]byte("k"))
		r.MayContain([]byte("k"))
		it := r.NewIterator()
		n := 0
		for ok := it.First(); ok && n < 10000; ok = it.Next() {
			n++
		}
		it.Seek([]byte("zz"))
	})
}

// FuzzGetCached: a point read through the block hash — a cached reader,
// whose cache is small enough to evict blocks and fill them again — finds
// what binary search finds (an uncached reader of the same file) and what a
// map of the written records holds, for every stored key and for keys
// between and before them. Keys are 0–300 bytes, a key may have several
// versions (descending seqs; the newest must win), values are 0–5 000 bytes.
func FuzzGetCached(f *testing.F) {
	f.Add(int64(1), uint16(900), uint8(3), uint16(24), uint16(64))
	f.Add(int64(2), uint16(60), uint8(1), uint16(300), uint16(5000))
	f.Add(int64(3), uint16(900), uint8(0), uint16(2), uint16(0))
	f.Add(int64(4), uint16(200), uint8(7), uint16(40), uint16(600))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, versions uint8, maxKey, maxValue uint16) {
		rnd := rand.New(rand.NewSource(seed))
		maxKey, maxValue = maxKey%301, maxValue%5001
		keySet := map[string]bool{}
		for i := 0; i < int(n%1000)+1; i++ {
			k := make([]byte, rnd.Intn(int(maxKey)+1))
			for j := range k {
				k[j] = "abc\x00\xff"[rnd.Intn(5)] // a small alphabet: shared prefixes
			}
			keySet[string(k)] = true
		}
		keys := make([]string, 0, len(keySet))
		for k := range keySet {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		want := map[string]record.Record{}
		var recs []record.Record
		seq := uint64(1 << 40)
		for _, k := range keys {
			for v := 0; v <= rnd.Intn(int(versions%8)+1); v++ {
				rec := record.Record{Key: []byte(k), Seq: seq, Kind: record.KindSet, Value: make([]byte, rnd.Intn(int(maxValue)+1))}
				seq -= uint64(rnd.Intn(3) + 1)
				if rnd.Intn(8) == 0 {
					rec.Kind, rec.Value = record.KindDelete, nil
				}
				rnd.Read(rec.Value)
				if v == 0 {
					want[k] = rec
				}
				recs = append(recs, rec)
			}
		}

		fs := vfs.NewMem()
		wf, _ := fs.Create("t.sst")
		b := NewBuilder(wf, BuilderOptions{})
		for _, r := range recs {
			b.Add(r)
		}
		if _, err := b.Finish(); err != nil {
			t.Fatal(err)
		}
		wf.Close()
		open := func() *Reader {
			rf, _ := fs.Open("t.sst")
			r, err := Open(rf)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			return r
		}
		search, hashed := open(), open()
		c := cache.New(32<<10, 1) // a few blocks: probes evict and refill
		hashed.SetCache(c, 1)

		probes := []string{""}
		for _, k := range keys {
			probes = append(probes, k, k+"\x00", k[:len(k)/2])
		}
		for pass := 0; pass < 2; pass++ {
			for i := range probes {
				if pass == 1 {
					i = len(probes) - 1 - i
				}
				key := []byte(probes[i])
				got, ok, err := hashed.Get(key)
				sg, sok, serr := search.Get(key)
				w, wok := want[probes[i]]
				if err != nil || serr != nil {
					t.Fatalf("Get(%q): %v / %v", key, err, serr)
				}
				if ok != wok || sok != wok {
					t.Fatalf("Get(%q): cached found=%v, uncached found=%v, written %v", key, ok, sok, wok)
				}
				if ok && !sameRecord(got, w) || sok && !sameRecord(sg, w) {
					t.Fatalf("Get(%q): cached seq %d, uncached seq %d, newest written seq %d", key, got.Seq, sg.Seq, w.Seq)
				}
			}
		}
		if hashed.Size() > 64<<10 && c.Snapshot().Evictions == 0 {
			t.Fatalf("a %d-byte table never evicted a block", hashed.Size())
		}
	})
}

func sameRecord(a, b record.Record) bool {
	return bytes.Equal(a.Key, b.Key) && a.Seq == b.Seq && a.Kind == b.Kind && bytes.Equal(a.Value, b.Value)
}
