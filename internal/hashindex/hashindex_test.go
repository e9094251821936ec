package hashindex

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"unikv/internal/codec"
	"unikv/internal/vfs"
)

// lookupFirst returns the first candidate table for key, or -1.
func lookupFirst(x *Index, key []byte) int {
	found := -1
	x.Lookup(key, func(t uint16) bool {
		found = int(t)
		return true
	})
	return found
}

// candidates collects every candidate table for key in order.
func candidates(x *Index, key []byte) []uint16 {
	var out []uint16
	x.Lookup(key, func(t uint16) bool {
		out = append(out, t)
		return false
	})
	return out
}

func TestInsertLookup(t *testing.T) {
	x := New(1024, 4)
	for i := 0; i < 500; i++ {
		x.Insert([]byte(fmt.Sprintf("key-%04d", i)), uint16(i%100))
	}
	if x.Count() != 500 {
		t.Fatalf("Count=%d", x.Count())
	}
	for i := 0; i < 500; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		cands := candidates(x, key)
		ok := false
		for _, c := range cands {
			if c == uint16(i%100) {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("key %q: table %d not among candidates %v", key, i%100, cands)
		}
	}
}

// TestNewestFirst is the crucial recency invariant: re-inserting a key must
// surface the newest tableID before older ones.
func TestNewestFirst(t *testing.T) {
	x := New(256, 4)
	key := []byte("hot-key")
	// Interleave with other keys to force varying slot occupancy.
	rnd := rand.New(rand.NewSource(7))
	for version := 1; version <= 30; version++ {
		x.Insert(key, uint16(version))
		for j := 0; j < 20; j++ {
			x.Insert([]byte(fmt.Sprintf("filler-%d-%d", version, rnd.Intn(1000))), uint16(version))
		}
		cands := candidates(x, key)
		// The newest version must appear before any older version of the
		// same key (tags always match for the same key).
		seen := map[uint16]int{}
		for pos, c := range cands {
			if _, dup := seen[c]; !dup {
				seen[c] = pos
			}
		}
		newestPos, ok := seen[uint16(version)]
		if !ok {
			t.Fatalf("version %d missing from candidates %v", version, cands)
		}
		for v := 1; v < version; v++ {
			if pos, ok := seen[uint16(v)]; ok && pos < newestPos {
				t.Fatalf("older version %d at pos %d precedes newest %d at pos %d",
					v, pos, version, newestPos)
			}
		}
	}
}

func TestLookupMissing(t *testing.T) {
	x := New(128, 4)
	for i := 0; i < 50; i++ {
		x.Insert([]byte(fmt.Sprintf("k%d", i)), 1)
	}
	// A missing key may produce keyTag false positives but must never stop
	// the search unless the callback says so.
	n := 0
	stopped := x.Lookup([]byte("definitely-absent-key"), func(t uint16) bool {
		n++
		return false
	})
	if stopped {
		t.Fatal("Lookup reported stopped without fn returning true")
	}
	// With 16-bit tags, false positives should be rare.
	if n > 3 {
		t.Fatalf("%d tag collisions for one key is implausible", n)
	}
}

func TestOverflowChains(t *testing.T) {
	// Tiny bucket array forces chaining.
	x := New(16, 2)
	for i := 0; i < 200; i++ {
		x.Insert([]byte(fmt.Sprintf("key-%04d", i)), uint16(i))
	}
	if x.OverflowLen() == 0 {
		t.Fatal("expected overflow entries with 16 buckets and 200 keys")
	}
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		found := false
		for _, c := range candidates(x, key) {
			if c == uint16(i) {
				found = true
			}
		}
		if !found {
			t.Fatalf("key %q lost in overflow", key)
		}
	}
}

// TestCarry: a carried index keeps exactly the entries the table map keeps,
// under their new IDs, and every kept key is still found — with the direct
// slots it wants already taken, so entries move into chains.
func TestCarry(t *testing.T) {
	src := New(64, 0)
	for i := 0; i < 300; i++ {
		src.Insert([]byte(fmt.Sprintf("k%04d", i)), uint16(i%6))
	}
	dst := New(64, 0)
	for i := 0; i < 40; i++ {
		dst.Insert([]byte(fmt.Sprintf("h%04d", i)), 0)
	}
	// Tables 0 and 1 were merged, 5 was never published: 2..4 become 1..3.
	dst.Carry(src, func(id uint16) (uint16, bool) { return id - 1, id >= 2 && id < 5 })
	if want := 40 + 150; dst.Count() != want {
		t.Fatalf("Count = %d, want %d", dst.Count(), want)
	}
	for i := 0; i < 300; i++ {
		got := candidates(dst, []byte(fmt.Sprintf("k%04d", i)))
		found := false
		for _, id := range got {
			found = found || id == uint16(i%6-1)
			if id > 3 {
				t.Fatalf("k%04d: candidate %d is no table of the carried index", i, id)
			}
		}
		if kept := i%6 >= 2 && i%6 < 5; kept != found {
			t.Fatalf("k%04d (table %d): candidates %v", i, i%6, got)
		}
	}
}

// TestCarryOtherGeometry: Carry refuses an index of another bucket count or
// probe count rather than file entries in buckets their keys do not probe.
func TestCarryOtherGeometry(t *testing.T) {
	for _, src := range []*Index{New(32, 0), New(64, 2)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Carry from %d buckets, %d hashes into 64, %d did not panic",
						len(src.buckets), src.numHash, DefaultNumHash)
				}
			}()
			New(64, 0).Carry(src, func(id uint16) (uint16, bool) { return id, true })
		}()
	}
	if !New(64, 0).SameGeometry(New(64, DefaultNumHash)) {
		t.Fatal("SameGeometry: one geometry reported as two")
	}
}

func TestReset(t *testing.T) {
	x := New(64, 4)
	for i := 0; i < 100; i++ {
		x.Insert([]byte(fmt.Sprintf("k%d", i)), 3)
	}
	x.Reset()
	if x.Count() != 0 || x.OverflowLen() != 0 {
		t.Fatalf("after reset: count=%d overflow=%d", x.Count(), x.OverflowLen())
	}
	if got := lookupFirst(x, []byte("k5")); got != -1 {
		t.Fatalf("found %d after reset", got)
	}
	// Reusable after reset.
	x.Insert([]byte("fresh"), 9)
	if got := lookupFirst(x, []byte("fresh")); got != 9 {
		t.Fatalf("got %d", got)
	}
}

func TestMemoryBytes(t *testing.T) {
	x := New(1000, 4)
	base := x.MemoryBytes()
	if base != 8000 {
		t.Fatalf("bucket footprint=%d want 8000", base)
	}
	// Fill direct slots + overflow: memory grows by 8 B per overflow entry.
	for i := 0; i < 3000; i++ {
		x.Insert([]byte(fmt.Sprintf("key-%05d", i)), 1)
	}
	got := x.MemoryBytes()
	want := base + int64(x.OverflowLen())*8
	if got != want {
		t.Fatalf("MemoryBytes=%d want %d", got, want)
	}
	if x.Utilization() < 0.9 {
		t.Fatalf("utilization=%f too low after overfill", x.Utilization())
	}
}

func TestSaveLoad(t *testing.T) {
	fs := vfs.NewMem()
	x := New(64, 3)
	for i := 0; i < 300; i++ {
		x.Insert([]byte(fmt.Sprintf("key-%04d", i)), uint16(i%40))
	}
	if err := x.Save(fs, "idx.ckpt"); err != nil {
		t.Fatal(err)
	}
	y, err := Load(fs, "idx.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if y.Count() != x.Count() {
		t.Fatalf("count %d vs %d", y.Count(), x.Count())
	}
	for i := 0; i < 300; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		a := candidates(x, key)
		b := candidates(y, key)
		if len(a) != len(b) {
			t.Fatalf("candidate sets differ for %q: %v vs %v", key, a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("candidate order differs for %q: %v vs %v", key, a, b)
			}
		}
	}
}

func TestLoadCorrupt(t *testing.T) {
	fs := vfs.NewMem()
	x := New(64, 3)
	x.Insert([]byte("k"), 1)
	x.Save(fs, "idx.ckpt")
	data, _ := fs.ReadFile("idx.ckpt")

	flipped := append([]byte(nil), data...)
	flipped[5] ^= 0xff
	fs.WriteFile("bad.ckpt", flipped)
	if _, err := Load(fs, "bad.ckpt"); err == nil {
		t.Fatal("corrupt checkpoint loaded")
	}

	fs.WriteFile("short.ckpt", data[:6])
	if _, err := Load(fs, "short.ckpt"); err == nil {
		t.Fatal("short checkpoint loaded")
	}

	if _, err := Load(fs, "missing.ckpt"); err == nil {
		t.Fatal("missing checkpoint loaded")
	}
}

// TestQuickModel checks the index against a model map: after arbitrary
// insert sequences, the newest tableID for every key is the first candidate
// whose value matches the model (tag collisions may interleave, but the
// newest entry for the key itself must precede older ones — verified via
// TestNewestFirst; here we check presence).
func TestQuickModel(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		x := New(512, 4)
		model := map[string]uint16{}
		for i := 0; i < 800; i++ {
			k := fmt.Sprintf("key-%03d", rnd.Intn(200))
			v := uint16(rnd.Intn(1 << 16))
			x.Insert([]byte(k), v)
			model[k] = v
		}
		for k, want := range model {
			found := false
			x.Lookup([]byte(k), func(tab uint16) bool {
				if tab == want {
					found = true
					return true
				}
				return false
			})
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultsAndSmallSizes(t *testing.T) {
	x := New(0, 0) // clamps
	x.Insert([]byte("a"), 1)
	if got := lookupFirst(x, []byte("a")); got != 1 {
		t.Fatalf("got %d", got)
	}
}

// goldenIndex is the fixed index behind TestGoldenBytes and BenchmarkMarshal:
// 20 000 seeded keys into 8192 buckets, so most entries sit in overflow
// chains and both halves of the encoding carry weight.
func goldenIndex() *Index {
	x := New(8192, 4)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		x.Insert([]byte(fmt.Sprintf("key-%08d", rng.Intn(1<<30))), uint16(rng.Intn(64)))
	}
	return x
}

// goldenMarshalSum is the SHA-256 of goldenIndex().Marshal() as written by
// the append-grown encoder this one replaced: the checkpoint format did not
// change with the presized buffer.
const goldenMarshalSum = "2649aa65ca1d65cb108186dd91ab57158afa3c412b8fc346bed72e7392b7f78d"

func TestGoldenBytes(t *testing.T) {
	x := goldenIndex()
	data := x.Marshal()
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != goldenMarshalSum {
		t.Fatalf("marshaled index hashes to %s, want %s", got, goldenMarshalSum)
	}
	if want := x.marshaledSize(); len(data) != want || cap(data) != want {
		t.Fatalf("Marshal returned len %d cap %d, want both %d", len(data), cap(data), want)
	}
}

// TestEntriesAreEightBytes: the paper's 8 bytes per entry hold in memory,
// for a bucket (its in-use flag folded into the chain head) and for an
// overflow entry.
func TestEntriesAreEightBytes(t *testing.T) {
	if size := unsafe.Sizeof(bucket{}); size != 8 {
		t.Fatalf("bucket is %d bytes, want 8", size)
	}
	if size := unsafe.Sizeof(overflow{}); size != 8 {
		t.Fatalf("overflow entry is %d bytes, want 8", size)
	}
}

// TestInsertAllMatchesInsert: InsertAll builds, chunk by chunk, the very
// index that one Insert per key builds, down to the checkpoint bytes.
func TestInsertAllMatchesInsert(t *testing.T) {
	one, all := New(512, 4), New(512, 4)
	rng := rand.New(rand.NewSource(7))
	for table := uint16(0); table < 8; table++ {
		keys := make([][]byte, rng.Intn(3*insertChunk))
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("key-%04d", rng.Intn(2000)))
			one.Insert(keys[i], table)
		}
		all.InsertAll(keys, table)
	}
	if !bytes.Equal(one.Marshal(), all.Marshal()) {
		t.Fatal("InsertAll built another index than Insert")
	}
	if one.Count() != all.Count() || one.OverflowLen() == 0 {
		t.Fatalf("counts %d vs %d, overflow %d", one.Count(), all.Count(), one.OverflowLen())
	}
}

// TestLoadRejectsUsedBitInChain: a checkpoint's chain head is a 31-bit
// arena index; one with the in-use bit set is corrupt, not a huge index.
func TestLoadRejectsUsedBitInChain(t *testing.T) {
	x := New(16, 4)
	x.Insert([]byte("k"), 1)
	data := x.Marshal()
	body := data[:len(data)-4]
	head := 8 + 3 + 1 + 4 // magic, three one-byte uvarints, bucket 0's used byte and packed word
	body[head+3] |= 0x80
	data = codec.PutUint32(body, codec.MaskChecksum(codec.Checksum(body)))
	if _, err := Unmarshal(data); err != ErrBadCheckpoint {
		t.Fatalf("Unmarshal = %v, want ErrBadCheckpoint", err)
	}
}

var sinkBytes []byte

func BenchmarkMarshal(b *testing.B) {
	x := goldenIndex()
	b.SetBytes(int64(len(x.Marshal())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBytes = x.Marshal()
	}
}
