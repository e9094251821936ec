package sstable

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"unikv/internal/cache"
	"unikv/internal/record"
	"unikv/internal/vfs"
)

func buildTable(t *testing.T, fs vfs.FS, name string, opts BuilderOptions, recs []record.Record) *Reader {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(f, opts)
	for _, r := range recs {
		b.Add(r)
	}
	props, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if props.Count != len(recs) {
		t.Fatalf("props.Count=%d want %d", props.Count, len(recs))
	}
	rf, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(rf)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func sortedRecords(n int, valSize int) []record.Record {
	recs := make([]record.Record, n)
	for i := 0; i < n; i++ {
		recs[i] = record.Record{
			Key:   []byte(fmt.Sprintf("key-%06d", i)),
			Seq:   uint64(i + 1),
			Kind:  record.KindSet,
			Value: bytes.Repeat([]byte{byte('a' + i%26)}, valSize),
		}
	}
	return recs
}

// bothPaths runs a Get-shaped test twice: on an uncached reader, which
// binary-searches every block, and on a cached one, whose point reads fill
// blocks that carry the block hash and look records up through it.
func bothPaths(t *testing.T, test func(t *testing.T, attach func(*Reader))) {
	t.Run("uncached", func(t *testing.T) { test(t, func(*Reader) {}) })
	t.Run("cached", func(t *testing.T) {
		test(t, func(r *Reader) { r.SetCache(cache.New(8<<20, 0), 1) })
	})
}

// hashed reports whether a block buffer carries the block hash: its
// capacity runs past the CRC.
func hashed(block []byte) bool { return cap(block) > len(block)+4 }

// resident returns block i as r's cache holds it.
func resident(t *testing.T, r *Reader, i int) []byte {
	t.Helper()
	b, ok := r.cache.Get(i)
	if !ok {
		t.Fatalf("block %d is not resident", i)
	}
	return b
}

func TestBuildAndGet(t *testing.T) { bothPaths(t, testBuildAndGet) }

func testBuildAndGet(t *testing.T, attach func(*Reader)) {
	fs := vfs.NewMem()
	recs := sortedRecords(1000, 64)
	r := buildTable(t, fs, "t.sst", BuilderOptions{}, recs)
	attach(r)
	defer r.Close()

	if r.Count() != 1000 {
		t.Fatalf("Count=%d", r.Count())
	}
	if string(r.Smallest()) != "key-000000" || string(r.Largest()) != "key-000999" {
		t.Fatalf("bounds %q..%q", r.Smallest(), r.Largest())
	}
	if r.MinSeq() != 1 || r.MaxSeq() != 1000 {
		t.Fatalf("seq bounds %d..%d", r.MinSeq(), r.MaxSeq())
	}
	for _, i := range []int{0, 1, 499, 998, 999} {
		got, ok, err := r.Get(recs[i].Key)
		if err != nil || !ok {
			t.Fatalf("Get(%q): ok=%v err=%v", recs[i].Key, ok, err)
		}
		if !bytes.Equal(got.Value, recs[i].Value) || got.Seq != recs[i].Seq {
			t.Fatalf("Get(%q) wrong record", recs[i].Key)
		}
	}
	for _, miss := range []string{"key-0005000", "a", "zzz", "key-"} {
		if _, ok, _ := r.Get([]byte(miss)); ok {
			t.Fatalf("found phantom key %q", miss)
		}
	}
}

func TestMultipleVersions(t *testing.T) { bothPaths(t, testMultipleVersions) }

func testMultipleVersions(t *testing.T, attach func(*Reader)) {
	fs := vfs.NewMem()
	recs := []record.Record{
		{Key: []byte("k"), Seq: 9, Kind: record.KindSet, Value: []byte("new")},
		{Key: []byte("k"), Seq: 3, Kind: record.KindSet, Value: []byte("old")},
	}
	r := buildTable(t, fs, "t.sst", BuilderOptions{}, recs)
	attach(r)
	defer r.Close()
	got, ok, err := r.Get([]byte("k"))
	if err != nil || !ok || string(got.Value) != "new" {
		t.Fatalf("got %+v ok=%v err=%v", got, ok, err)
	}
}

func TestIterator(t *testing.T) {
	fs := vfs.NewMem()
	recs := sortedRecords(2500, 40)
	r := buildTable(t, fs, "t.sst", BuilderOptions{}, recs)
	defer r.Close()

	it := r.NewIterator()
	i := 0
	for ok := it.First(); ok; ok = it.Next() {
		if !bytes.Equal(it.Record().Key, recs[i].Key) {
			t.Fatalf("iter key %d mismatch: %q", i, it.Record().Key)
		}
		i++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if i != len(recs) {
		t.Fatalf("iterated %d of %d", i, len(recs))
	}
}

func TestIteratorSeek(t *testing.T) {
	fs := vfs.NewMem()
	recs := sortedRecords(300, 128)
	r := buildTable(t, fs, "t.sst", BuilderOptions{}, recs)
	defer r.Close()

	it := r.NewIterator()
	if !it.Seek([]byte("key-000100")) || string(it.Record().Key) != "key-000100" {
		t.Fatalf("Seek exact failed: %q", it.Record().Key)
	}
	if !it.Seek([]byte("key-0000995")) || string(it.Record().Key) != "key-000100" {
		t.Fatalf("Seek between failed: %q", it.Record().Key)
	}
	if !it.Seek([]byte("a")) || string(it.Record().Key) != "key-000000" {
		t.Fatalf("Seek before-start failed: %q", it.Record().Key)
	}
	if it.Seek([]byte("zzz")) {
		t.Fatal("Seek past end should be invalid")
	}
	// Seek then scan to end.
	n := 0
	for ok := it.Seek([]byte("key-000290")); ok; ok = it.Next() {
		n++
	}
	if n != 10 {
		t.Fatalf("tail scan got %d records", n)
	}
}

func TestBloomFilter(t *testing.T) {
	fs := vfs.NewMem()
	recs := sortedRecords(500, 16)
	r := buildTable(t, fs, "t.sst", BuilderOptions{BloomBitsPerKey: 10}, recs)
	defer r.Close()

	for _, rec := range recs {
		if !r.MayContain(rec.Key) {
			t.Fatalf("bloom false negative for %q", rec.Key)
		}
	}
	fp := 0
	const probes = 2000
	for i := 0; i < probes; i++ {
		if r.MayContain([]byte(fmt.Sprintf("absent-%06d", i))) {
			fp++
		}
	}
	if fp > probes/10 {
		t.Fatalf("bloom false positive rate too high: %d/%d", fp, probes)
	}
	// Lookup through the filter still behaves.
	if _, ok, _ := r.Get([]byte("absent-xyz")); ok {
		t.Fatal("phantom key")
	}
}

func TestNoBloomWhenDisabled(t *testing.T) {
	fs := vfs.NewMem()
	r := buildTable(t, fs, "t.sst", BuilderOptions{}, sortedRecords(10, 8))
	defer r.Close()
	if !r.MayContain([]byte("whatever")) {
		t.Fatal("MayContain must be true without a filter")
	}
}

func TestValuePointerRecords(t *testing.T) { bothPaths(t, testValuePointerRecords) }

func testValuePointerRecords(t *testing.T, attach func(*Reader)) {
	fs := vfs.NewMem()
	ptr := record.ValuePtr{Partition: 1, LogNum: 7, Offset: 4096, Length: 100}
	recs := []record.Record{
		{Key: []byte("a"), Seq: 1, Kind: record.KindSetPtr, Value: ptr.Encode(nil)},
		{Key: []byte("b"), Seq: 2, Kind: record.KindDelete},
	}
	r := buildTable(t, fs, "t.sst", BuilderOptions{}, recs)
	attach(r)
	defer r.Close()
	got, ok, err := r.Get([]byte("a"))
	if err != nil || !ok || got.Kind != record.KindSetPtr {
		t.Fatalf("%+v ok=%v err=%v", got, ok, err)
	}
	decoded, err := record.DecodePtr(got.Value)
	if err != nil || decoded != ptr {
		t.Fatalf("pointer mismatch: %v %v", decoded, err)
	}
	got, ok, _ = r.Get([]byte("b"))
	if !ok || got.Kind != record.KindDelete {
		t.Fatal("tombstone lost")
	}
}

func TestCorruptionDetected(t *testing.T) {
	fs := vfs.NewMem()
	recs := sortedRecords(200, 64)
	f, _ := fs.Create("t.sst")
	b := NewBuilder(f, BuilderOptions{})
	for _, r := range recs {
		b.Add(r)
	}
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	data, _ := fs.ReadFile("t.sst")

	// Flip a byte in the first data block.
	corrupt := append([]byte(nil), data...)
	corrupt[10] ^= 0xff
	fs.WriteFile("bad.sst", corrupt)
	rf, _ := fs.Open("bad.sst")
	r, err := Open(rf)
	if err == nil {
		// Index/meta were fine; the data-block read must fail.
		if _, _, err := r.Get(recs[0].Key); err == nil {
			t.Fatal("corrupt data block read succeeded")
		}
		r.Close()
	}

	// Truncate the footer.
	fs.WriteFile("short.sst", data[:len(data)-5])
	rf2, _ := fs.Open("short.sst")
	if _, err := Open(rf2); err == nil {
		t.Fatal("truncated table opened")
	}

	// Empty file.
	fs.WriteFile("empty.sst", nil)
	rf3, _ := fs.Open("empty.sst")
	if _, err := Open(rf3); err == nil {
		t.Fatal("empty table opened")
	}
}

func TestEstimatedSizeGrows(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("t.sst")
	b := NewBuilder(f, BuilderOptions{})
	if b.EstimatedSize() != 0 {
		t.Fatal("nonzero initial size")
	}
	b.Add(record.Record{Key: []byte("k"), Seq: 1, Kind: record.KindSet, Value: make([]byte, 100)})
	if b.EstimatedSize() < 100 {
		t.Fatalf("EstimatedSize=%d", b.EstimatedSize())
	}
	if b.Count() != 1 {
		t.Fatalf("Count=%d", b.Count())
	}
	b.Finish()
	f.Close()
}

// TestQuickRoundTrip: random sorted key sets round-trip through the table
// and agree with a model on Get + full iteration.
func TestQuickRoundTrip(t *testing.T) { bothPaths(t, testQuickRoundTrip) }

func testQuickRoundTrip(t *testing.T, attach func(*Reader)) {
	f := func(seed int64, bloom bool) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := rnd.Intn(400) + 1
		keys := map[string]bool{}
		for len(keys) < n {
			keys[fmt.Sprintf("k%08x", rnd.Uint32())] = true
		}
		var sorted []string
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		var recs []record.Record
		for i, k := range sorted {
			v := make([]byte, rnd.Intn(200))
			rnd.Read(v)
			recs = append(recs, record.Record{Key: []byte(k), Seq: uint64(i + 1), Kind: record.KindSet, Value: v})
		}
		opts := BuilderOptions{}
		if bloom {
			opts.BloomBitsPerKey = 10
		}
		fs := vfs.NewMem()
		wf, _ := fs.Create("q.sst")
		b := NewBuilder(wf, opts)
		for _, r := range recs {
			b.Add(r)
		}
		if _, err := b.Finish(); err != nil {
			return false
		}
		wf.Close()
		rf, _ := fs.Open("q.sst")
		r, err := Open(rf)
		if err != nil {
			return false
		}
		attach(r)
		defer r.Close()
		for _, rec := range recs {
			got, ok, err := r.Get(rec.Key)
			if err != nil || !ok || !bytes.Equal(got.Value, rec.Value) {
				return false
			}
		}
		it := r.NewIterator()
		i := 0
		for ok := it.First(); ok; ok = it.Next() {
			if !bytes.Equal(it.Record().Key, recs[i].Key) {
				return false
			}
			i++
		}
		return i == len(recs) && it.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockReadsCounter(t *testing.T) {
	fs := vfs.NewMem()
	r := buildTable(t, fs, "t.sst", BuilderOptions{}, sortedRecords(1000, 64))
	defer r.Close()
	before := r.BlockReads.Load()
	r.Get([]byte("key-000500"))
	if r.BlockReads.Load() != before+1 {
		t.Fatalf("expected exactly one block read, got %d", r.BlockReads.Load()-before)
	}
	if r.NumBlocks() < 2 {
		t.Fatalf("table too small for the test: %d blocks", r.NumBlocks())
	}
	if r.Size() <= 0 {
		t.Fatal("Size() not positive")
	}
}

func TestEmptyTable(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("empty.sst")
	b := NewBuilder(f, BuilderOptions{})
	props, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if props.Count != 0 {
		t.Fatalf("Count=%d", props.Count)
	}
	f.Close()
	rf, _ := fs.Open("empty.sst")
	r, err := Open(rf)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok, err := r.Get([]byte("k")); ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	it := r.NewIterator()
	if it.First() || it.Seek([]byte("a")) {
		t.Fatal("empty table iterator valid")
	}
}

func TestHugeRecordsBlockOffsets(t *testing.T) { bothPaths(t, testHugeRecordsBlockOffsets) }

func testHugeRecordsBlockOffsets(t *testing.T, attach func(*Reader)) {
	// Records large enough that a block would blow the uint16 offset
	// budget if the builder didn't flush early.
	fs := vfs.NewMem()
	var recs []record.Record
	for i := 0; i < 12; i++ {
		recs = append(recs, record.Record{
			Key:   []byte(fmt.Sprintf("key-%02d", i)),
			Seq:   uint64(i + 1),
			Kind:  record.KindSet,
			Value: bytes.Repeat([]byte{byte('a' + i)}, 30000),
		})
	}
	// Oversized block target tries to pack several 30 KB records together.
	r := buildTable(t, fs, "huge.sst", BuilderOptions{BlockSize: 1 << 20}, recs)
	attach(r)
	defer r.Close()
	for _, rec := range recs {
		got, ok, err := r.Get(rec.Key)
		if err != nil || !ok || !bytes.Equal(got.Value, rec.Value) {
			t.Fatalf("huge record %q: ok=%v err=%v", rec.Key, ok, err)
		}
	}
	it := r.NewIterator()
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		n++
	}
	if n != len(recs) {
		t.Fatalf("iterated %d of %d", n, len(recs))
	}
}

func TestSingleRecordTable(t *testing.T) { bothPaths(t, testSingleRecordTable) }

func testSingleRecordTable(t *testing.T, attach func(*Reader)) {
	fs := vfs.NewMem()
	recs := []record.Record{{Key: []byte("only"), Seq: 1, Kind: record.KindSet, Value: []byte("v")}}
	r := buildTable(t, fs, "one.sst", BuilderOptions{}, recs)
	attach(r)
	defer r.Close()
	if got, ok, _ := r.Get([]byte("only")); !ok || string(got.Value) != "v" {
		t.Fatal("single record lost")
	}
	if _, ok, _ := r.Get([]byte("onlz")); ok {
		t.Fatal("phantom")
	}
	it := r.NewIterator()
	if !it.Seek([]byte("a")) || string(it.Record().Key) != "only" {
		t.Fatal("seek before single record")
	}
}

func TestRecordAliasingIsStable(t *testing.T) {
	// Records returned by Get alias the block buffer; reading another
	// block must not corrupt previously returned records.
	fs := vfs.NewMem()
	recs := sortedRecords(2000, 64)
	r := buildTable(t, fs, "alias.sst", BuilderOptions{}, recs)
	defer r.Close()
	first, ok, err := r.Get(recs[0].Key)
	if err != nil || !ok {
		t.Fatal(err)
	}
	want := append([]byte(nil), first.Value...)
	for i := 100; i < 2000; i += 100 {
		r.Get(recs[i].Key)
	}
	if !bytes.Equal(first.Value, want) {
		t.Fatal("record mutated by later block reads")
	}
}

func TestVerifyChecksums(t *testing.T) {
	fs := vfs.NewMem()
	r := buildTable(t, fs, "v.sst", BuilderOptions{}, sortedRecords(500, 64))
	var paced, calls int64
	if i, err := r.VerifyChecksums(func(n int64) error { paced += n; calls++; return nil }); err != nil || i != -1 {
		t.Fatalf("clean table: block %d, %v", i, err)
	}
	if calls != int64(r.NumBlocks()) || paced <= 0 || paced >= r.Size() {
		t.Fatalf("paced %d bytes in %d calls for %d blocks of a %d-byte table", paced, calls, r.NumBlocks(), r.Size())
	}
	stop := errors.New("stop")
	if i, err := r.VerifyChecksums(func(int64) error { return stop }); i != 0 || err != stop {
		t.Fatalf("pace error: block %d, %v; want block 0, the pace's own error", i, err)
	}
	r.Close()

	data, _ := fs.ReadFile("v.sst")
	data[100] ^= 0xff
	fs.WriteFile("bad.sst", data)
	rf, _ := fs.Open("bad.sst")
	r2, err := Open(rf)
	if err != nil {
		return // corruption hit meta/index: also detected
	}
	defer r2.Close()
	if i, err := r2.VerifyChecksums(nil); err == nil || i != 0 {
		t.Fatalf("corruption in block 0 reported as block %d, %v", i, err)
	}
}

// goldenRecords is the fixed record stream behind TestGoldenBytes: 6000
// sorted keys with seeded value sizes up to 2 KiB (over 6 MiB, so the
// builder's output buffer is written out mid-table), empty values, all
// three kinds, multi-version keys, and a few values past the 60 KiB
// early-flush limit of a block.
func goldenRecords() []record.Record {
	rnd := rand.New(rand.NewSource(42))
	var recs []record.Record
	seq := uint64(1 << 20)
	for i := 0; i < 6000; i++ {
		key := []byte(fmt.Sprintf("user%020d", i*7))
		versions := 1
		if i%41 == 0 {
			versions = 3
		}
		for v := 0; v < versions; v++ {
			r := record.Record{Key: key, Seq: seq, Kind: record.KindSet}
			seq--
			switch {
			case i%29 == 5:
				r.Kind = record.KindDelete
			case i%13 == 2:
				r.Kind = record.KindSetPtr
				r.Value = record.ValuePtr{Partition: 1, LogNum: uint32(i), Offset: uint32(i * 1032), Length: 1024}.Encode(nil)
			case i%997 == 1:
				r.Value = make([]byte, 70<<10)
				rnd.Read(r.Value)
			case i%17 == 0:
				// empty value
			default:
				r.Value = make([]byte, rnd.Intn(2<<10))
				rnd.Read(r.Value)
			}
			recs = append(recs, r)
		}
	}
	return recs
}

// golden table sums: SHA-256 of the files the parent commit's builder (two
// Writes per block, separate block buffer) produced for goldenRecords. The
// buffered builder must produce the same bytes.
var goldenTableSums = map[string]string{
	"plain":    "2a571c68741c7f921ff363e115ca448100b3dfa7a0e2080052404393916912c8",
	"bloom10":  "bd47b2ed991838743c5457bc699c31ea5d28595d3ff74c49d90d7c1c6a2c866b",
	"block512": "f14ccb93a0de71fe01690d4338ae9cf00e5202db6768b16f295f55b1570a3abd",
}

func TestGoldenBytes(t *testing.T) {
	recs := goldenRecords()
	for name, opts := range map[string]BuilderOptions{
		"plain":    {},
		"bloom10":  {BloomBitsPerKey: 10},
		"block512": {BlockSize: 512},
	} {
		fs := vfs.NewMem()
		r := buildTable(t, fs, "t.sst", opts, recs)
		data, err := fs.ReadFile("t.sst")
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != goldenTableSums[name] {
			t.Errorf("%s: table bytes changed: sha256 %s, want %s", name, got, goldenTableSums[name])
		}
		// The file reads back as the stream.
		it := r.NewIterator()
		i := 0
		for ok := it.First(); ok; ok = it.Next() {
			got := it.Record()
			if !bytes.Equal(got.Key, recs[i].Key) || got.Seq != recs[i].Seq || got.Kind != recs[i].Kind || !bytes.Equal(got.Value, recs[i].Value) {
				t.Fatalf("%s: record %d differs", name, i)
			}
			i++
		}
		if err := it.Err(); err != nil || i != len(recs) {
			t.Fatalf("%s: iterated %d of %d records: %v", name, i, len(recs), err)
		}
		r.Close()
	}
}

// TestBuilderWritesInLargeUnits pins the output contract: a table reaches
// the file in outBufSize pieces plus the tail, not two writes per block.
func TestBuilderWritesInLargeUnits(t *testing.T) {
	fs := vfs.NewMem()
	r := buildTable(t, fs, "t.sst", BuilderOptions{}, goldenRecords())
	defer r.Close()
	if r.NumBlocks() < 1000 {
		t.Fatalf("only %d blocks; the test needs a big table", r.NumBlocks())
	}
	want := r.Size()/outBufSize + 1
	if got := fs.Counters().WriteOps.Load(); got > want {
		t.Fatalf("%d-byte table took %d writes, want at most %d", r.Size(), got, want)
	}
}

// TestFailedWriteFailsFinish: a write error while the table is being built
// — including a short write of a full output buffer — surfaces from Finish,
// and the partial file is not a table (no footer), so the engine's orphan
// sweep is all that is left to do.
func TestFailedWriteFailsFinish(t *testing.T) {
	for _, torn := range []int{0, 1 << 20} {
		inner := vfs.NewMem()
		ffs := vfs.NewFail(inner)
		f, _ := ffs.Create("t.sst")
		b := NewBuilder(f, BuilderOptions{})
		ffs.ArmPlan(vfs.FailPlan{Fail: 1, Kinds: vfs.OpWrite, TornBytes: torn})
		for _, r := range goldenRecords() {
			b.Add(r)
		}
		if _, err := b.Finish(); err == nil {
			t.Fatalf("torn=%d: Finish succeeded over a failed write", torn)
		}
		f.Close()
		rf, _ := inner.Open("t.sst")
		if sz, _ := rf.Size(); sz != int64(torn) {
			t.Fatalf("torn=%d: %d bytes landed", torn, sz)
		}
		if _, err := Open(rf); err == nil {
			t.Fatalf("torn=%d: the partial file opened as a table", torn)
		}
	}
}

// TestMaintIteratorLeavesCacheAlone: a maintenance iterator reads through
// the block cache — it takes hits — but adds nothing to it.
func TestMaintIteratorLeavesCacheAlone(t *testing.T) {
	fs := vfs.NewMem()
	r := buildTable(t, fs, "t.sst", BuilderOptions{}, sortedRecords(2000, 100))
	defer r.Close()
	c := cache.New(8<<20, 0)
	r.SetCache(c, 1)
	walk := func(it *Iterator) (n int) {
		for ok := it.First(); ok; ok = it.Next() {
			n++
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
		return n
	}
	if n := walk(r.NewMaintIterator()); n != 2000 {
		t.Fatalf("maintenance pass saw %d records", n)
	}
	if s := c.Snapshot(); s.Bytes != 0 || r.BlockReads.Load() != int64(r.NumBlocks()) {
		t.Fatalf("maintenance pass cached %d bytes (block reads %d)", s.Bytes, r.BlockReads.Load())
	}
	walk(r.NewIterator()) // populates
	before := r.BlockReads.Load()
	walk(r.NewMaintIterator())
	if r.BlockReads.Load() != before {
		t.Fatal("maintenance pass ignored cached blocks")
	}
}

// TestCachedGetAllocatesNothing: a point lookup whose block is resident
// costs no allocation and no file read — the record it returns aliases the
// cached block.
func TestCachedGetAllocatesNothing(t *testing.T) {
	fs := vfs.NewMem()
	recs := sortedRecords(2000, 100)
	r := buildTable(t, fs, "t.sst", BuilderOptions{}, recs)
	defer r.Close()
	c := cache.New(8<<20, 0)
	r.SetCache(c, 1)
	key := recs[1234].Key
	if _, ok, err := r.Get(key); !ok || err != nil {
		t.Fatalf("get: %v %v", ok, err)
	}
	reads := r.BlockReads.Load()
	allocs := testing.AllocsPerRun(100, func() {
		if rec, ok, err := r.Get(key); !ok || err != nil || !bytes.Equal(rec.Key, key) {
			t.Fatalf("cached get: %v %v", ok, err)
		}
	})
	if allocs != 0 || r.BlockReads.Load() != reads {
		t.Fatalf("a cached get allocates %v times and read %d blocks", allocs, r.BlockReads.Load()-reads)
	}
	if s := c.Snapshot(); s.BlockHits != 101 || s.BlockMisses != 1 {
		t.Fatalf("cache counters %+v", s)
	}
}

// TestGetOutsideRange pins what Get costs a caller that skips the range
// check: a key past Largest is absent without a block read, a key before
// Smallest is absent after reading — and caching — block 0.
func TestGetOutsideRange(t *testing.T) {
	fs := vfs.NewMem()
	r := buildTable(t, fs, "t.sst", BuilderOptions{}, sortedRecords(2000, 100))
	defer r.Close()
	c := cache.New(8<<20, 0)
	r.SetCache(c, 1)
	for _, tc := range []struct {
		key   string
		reads int64
	}{{"key-999999", 0}, {"zzz", 0}, {"key-", 1}, {"a", 0}} { // "a" finds block 0 resident
		before := r.BlockReads.Load()
		if _, ok, err := r.Get([]byte(tc.key)); ok || err != nil {
			t.Fatalf("get %q outside [%q, %q]: found=%v err=%v", tc.key, r.Smallest(), r.Largest(), ok, err)
		}
		if n := r.BlockReads.Load() - before; n != tc.reads {
			t.Fatalf("get %q read %d blocks, want %d", tc.key, n, tc.reads)
		}
	}
	if s := c.Snapshot(); s.Entries != 1 || s.BlockMisses != 1 || s.BlockHits != 1 {
		t.Fatalf("cache after four out-of-range gets: %+v", s)
	}
}

// TestGetNewestVersion: a key's versions may share a block or straddle a
// block boundary; either way Get returns the newest, and a key between two
// stored keys is absent.
func TestGetNewestVersion(t *testing.T) { bothPaths(t, testGetNewestVersion) }

func testGetNewestVersion(t *testing.T, attach func(*Reader)) {
	var recs []record.Record
	newest := map[string]uint64{}
	seq := uint64(1 << 20)
	for i := 0; i < 300; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		newest[string(key)] = seq
		for v := 0; v <= i%7; v++ {
			recs = append(recs, record.Record{Key: key, Seq: seq, Kind: record.KindSet, Value: bytes.Repeat([]byte{byte(v)}, 300)})
			seq--
		}
	}
	r := buildTable(t, vfs.NewMem(), "v.sst", BuilderOptions{}, recs)
	attach(r)
	defer r.Close()

	// The table must hold both shapes: versions inside one block, and a
	// key whose versions straddle a boundary.
	inBlock, straddles := false, false
	it := r.NewMaintIterator()
	var prevKey []byte
	prevBlock := -1
	for ok := it.First(); ok; ok = it.Next() {
		b, _ := it.Position()
		if bytes.Equal(it.Record().Key, prevKey) {
			inBlock = inBlock || b == prevBlock
			straddles = straddles || b != prevBlock
		}
		prevKey, prevBlock = append(prevKey[:0], it.Record().Key...), b
	}
	if !inBlock || !straddles {
		t.Fatalf("table shape: versions in one block %v, across a boundary %v", inBlock, straddles)
	}

	for key, seq := range newest {
		got, ok, err := r.Get([]byte(key))
		if err != nil || !ok || got.Seq != seq || got.Value[0] != 0 {
			t.Fatalf("Get(%q) = seq %d ok=%v err=%v, want the newest, seq %d", key, got.Seq, ok, err, seq)
		}
		if _, ok, err := r.Get([]byte(key + "\x00")); ok || err != nil {
			t.Fatalf("Get(%q+0x00): found=%v err=%v", key, ok, err)
		}
	}
	for i := 0; i < r.NumBlocks(); i++ {
		if b, ok := r.cache.Get(i); ok && !hashed(b) {
			t.Fatalf("block %d, filled by a point read, has no hash", i)
		}
	}
}

// TestGetManyTinyRecords: a block of more than 255 records is not hashed —
// a bucket names its record in one byte — and Get binary-searches it.
func TestGetManyTinyRecords(t *testing.T) { bothPaths(t, testGetManyTinyRecords) }

func testGetManyTinyRecords(t *testing.T, attach func(*Reader)) {
	var recs []record.Record
	for i := 0; i < 3000; i++ {
		recs = append(recs, record.Record{Key: []byte(fmt.Sprintf("k%05d", 2*i)), Seq: uint64(i + 1), Kind: record.KindSet})
	}
	r := buildTable(t, vfs.NewMem(), "tiny.sst", BuilderOptions{}, recs)
	attach(r)
	defer r.Close()
	for i, rec := range recs {
		if got, ok, err := r.Get(rec.Key); err != nil || !ok || got.Seq != rec.Seq {
			t.Fatalf("Get(%q): seq %d ok=%v err=%v", rec.Key, got.Seq, ok, err)
		}
		if _, ok, err := r.Get([]byte(fmt.Sprintf("k%05d", 2*i+1))); ok || err != nil {
			t.Fatalf("absent key %d: found=%v err=%v", 2*i+1, ok, err)
		}
	}
	for i := 0; i < r.NumBlocks()-1; i++ { // the last block holds the remainder
		if b, ok := r.cache.Get(i); ok {
			if pb, _ := parseBlock(b); pb.n <= maxHashedRecords || hashed(b) {
				t.Fatalf("block %d: %d records, hashed %v", i, pb.n, hashed(b))
			}
		}
	}
	// Such blocks have little slack too; with room to spare it is still not hashed.
	raw, err := r.readChecked(r.index[0].offset, r.index[0].length, false)
	if err != nil {
		t.Fatal(err)
	}
	roomy := append(make([]byte, 0, len(raw)+4+16*maxHashedRecords), raw...)
	if b := hashBlock(roomy); hashed(b) {
		t.Fatal("a block of more than 255 records was hashed")
	}
}

// TestGetWithoutSlack: a block whose buffer has less slack than 2 buckets a
// record — none at all when payload and CRC fill a size class exactly — is
// not hashed, and Get binary-searches it; from 2 buckets a record it is.
func TestGetWithoutSlack(t *testing.T) {
	seen := map[bool]bool{}
	noSlack := false
	for vlen := 3900; vlen < 4100; vlen++ {
		recs := []record.Record{
			{Key: []byte("a"), Seq: 2, Kind: record.KindSet, Value: []byte("x")},
			{Key: []byte("b"), Seq: 1, Kind: record.KindSet, Value: make([]byte, vlen)},
		}
		r := buildTable(t, vfs.NewMem(), "s.sst", BuilderOptions{}, recs)
		r.SetCache(cache.New(8<<20, 0), 1)
		n := int(r.index[0].length) + 4
		slack := cap(slices.Grow([]byte(nil), n)) - n
		for _, rec := range recs {
			if got, ok, err := r.Get(rec.Key); err != nil || !ok || got.Seq != rec.Seq {
				t.Fatalf("slack %d: Get(%q) ok=%v err=%v", slack, rec.Key, ok, err)
			}
		}
		for _, k := range []string{"", "a\x00", "c"} {
			if _, ok, err := r.Get([]byte(k)); ok || err != nil {
				t.Fatalf("slack %d: Get(%q) found=%v err=%v", slack, k, ok, err)
			}
		}
		want := slack/2 >= 2*len(recs)
		if got := hashed(resident(t, r, 0)); got != want {
			t.Fatalf("%d bytes of slack for %d records: hashed %v", slack, len(recs), got)
		}
		seen[want] = true
		noSlack = noSlack || slack == 0
		r.Close()
	}
	if !seen[true] || !seen[false] || !noSlack {
		t.Fatalf("cases covered: hashed %v, not hashed %v, no slack at all %v", seen[true], seen[false], noSlack)
	}
}

// TestGetOnIteratorFilledBlock: an iterator fills the cache with blocks as
// they were read, without a hash; a later Get takes them as they are and
// binary-searches.
func TestGetOnIteratorFilledBlock(t *testing.T) {
	recs := sortedRecords(2000, 100)
	r := buildTable(t, vfs.NewMem(), "t.sst", BuilderOptions{}, recs)
	defer r.Close()
	r.SetCache(cache.New(8<<20, 0), 1)
	it := r.NewIterator()
	for ok := it.First(); ok; ok = it.Next() {
	}
	reads := r.BlockReads.Load()
	for i, rec := range recs {
		if got, ok, err := r.Get(rec.Key); err != nil || !ok || !bytes.Equal(got.Value, rec.Value) {
			t.Fatalf("Get(%q): ok=%v err=%v", rec.Key, ok, err)
		}
		if _, ok, err := r.Get([]byte(fmt.Sprintf("key-%06d+", i))); ok || err != nil {
			t.Fatalf("absent key after %q: found=%v err=%v", rec.Key, ok, err)
		}
	}
	if n := r.BlockReads.Load() - reads; n != 0 {
		t.Fatalf("gets on resident blocks read %d blocks", n)
	}
	for i := 0; i < r.NumBlocks(); i++ {
		if hashed(resident(t, r, i)) {
			t.Fatalf("block %d, filled by an iterator, carries a hash", i)
		}
	}
}

// TestConcurrentHashedGets: goroutines whose point reads race to fill,
// evict and refill the same blocks each find every key — a hash is written
// before its block is published and never after.
func TestConcurrentHashedGets(t *testing.T) {
	recs := sortedRecords(3000, 100)
	r := buildTable(t, vfs.NewMem(), "t.sst", BuilderOptions{}, recs)
	defer r.Close()
	c := cache.New(64<<10, 2) // a fraction of the table: blocks are evicted and filled again
	r.SetCache(c, 1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				rec := recs[(i*7+g*701)%len(recs)]
				if got, ok, err := r.Get(rec.Key); err != nil || !ok || !bytes.Equal(got.Value, rec.Value) {
					t.Errorf("goroutine %d: Get(%q) ok=%v err=%v", g, rec.Key, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s := c.Snapshot(); s.Evictions == 0 {
		t.Fatalf("no block was evicted: %+v", s)
	}
}

// TestPointReadFillCostsNothingMore pins what the block hash costs: a Get
// that misses allocates the block's one buffer (and, cached, the cache's
// entry for it), and the cache is charged for the block what a plain fill
// charges — the hash lives in the buffer's slack.
func TestPointReadFillCostsNothingMore(t *testing.T) {
	r := buildTable(t, vfs.NewMem(), "t.sst", BuilderOptions{}, sortedRecords(6000, 100))
	defer r.Close()
	if r.NumBlocks() < 102 {
		t.Fatalf("only %d blocks; every run of the loop below must miss", r.NumBlocks())
	}
	missAllocs := func() float64 {
		i := 0
		return testing.AllocsPerRun(100, func() {
			if _, ok, err := r.Get(r.index[i].lastKey); !ok || err != nil {
				t.Fatalf("block %d: %v %v", i, ok, err)
			}
			i++
		})
	}
	if a := missAllocs(); a != 1 {
		t.Fatalf("an uncached get allocates %v times, want 1 (the block)", a)
	}
	c := cache.New(8<<20, 0)
	r.SetCache(c, 1)
	if a := missAllocs(); a != 2 && !raceEnabled {
		t.Fatalf("a get that misses the cache allocates %v times, want 2 (the block, the cache entry)", a)
	}
	if !hashed(resident(t, r, 0)) {
		t.Fatal("a point read filled block 0 without its hash")
	}

	// One fill each way, into caches of their own.
	hc := cache.New(8<<20, 0)
	r.SetCache(hc, 1)
	if _, ok, err := r.Get(r.index[7].lastKey); !ok || err != nil {
		t.Fatalf("get: %v %v", ok, err)
	}
	plain := buildTable(t, vfs.NewMem(), "t.sst", BuilderOptions{}, sortedRecords(6000, 100))
	defer plain.Close()
	pc := cache.New(8<<20, 0)
	plain.SetCache(pc, 1)
	if _, err := plain.LoadBlock(7); err != nil {
		t.Fatal(err)
	}
	if got, want := hc.Snapshot().Bytes, pc.Snapshot().Bytes; got != want || got <= int64(r.index[7].length) {
		t.Fatalf("a hashed fill charges %d bytes, a plain fill %d", got, want)
	}
}

// benchRecords is the benchmarks' table: 4 MiB of 1 KiB records, the
// shape of one flushed memtable.
func benchRecords() []record.Record {
	rnd := rand.New(rand.NewSource(1))
	recs := make([]record.Record, 4096)
	for i := range recs {
		val := make([]byte, 1024)
		rnd.Read(val)
		recs[i] = record.Record{Key: []byte(fmt.Sprintf("user%020d", i)), Seq: uint64(i + 1), Kind: record.KindSet, Value: val}
	}
	return recs
}

func benchBuild(b *testing.B, fs vfs.FS, recs []record.Record) {
	f, err := fs.Create("bench.sst")
	if err != nil {
		b.Fatal(err)
	}
	bl := NewBuilder(f, BuilderOptions{})
	for _, r := range recs {
		bl.Add(r)
	}
	if _, err := bl.Finish(); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBuild reports the cost per record of building a 4 MiB table on
// the in-memory file system (allocs/op is per record too: Add's steady
// state plus the table's fixed costs spread over 4096 records).
func BenchmarkBuild(b *testing.B) {
	recs := benchRecords()
	fs := vfs.NewMem()
	b.ReportAllocs()
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i += len(recs) {
		benchBuild(b, fs, recs)
	}
}

func benchReader(b *testing.B) (*Reader, []record.Record) {
	recs := benchRecords()
	fs := vfs.NewMem()
	benchBuild(b, fs, recs)
	rf, err := fs.Open("bench.sst")
	if err != nil {
		b.Fatal(err)
	}
	r, err := Open(rf)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { r.Close() })
	return r, recs
}

var benchSink record.Record

func BenchmarkGet(b *testing.B) {
	r, recs := benchReader(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, ok, err := r.Get(recs[i*61%len(recs)].Key)
		if !ok || err != nil {
			b.Fatal(ok, err)
		}
		benchSink = rec
	}
}

func BenchmarkSeek(b *testing.B) {
	r, recs := benchReader(b)
	it := r.NewIterator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !it.Seek(recs[i*61%len(recs)].Key) {
			b.Fatal(it.Err())
		}
		benchSink = it.Record()
	}
}

// BenchmarkIterate reports the cost per record of a full table walk.
func BenchmarkIterate(b *testing.B) {
	r, recs := benchReader(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(recs) {
		it := r.NewIterator()
		for ok := it.First(); ok; ok = it.Next() {
			benchSink = it.Record()
		}
	}
}

// sortedStoreTable builds a SortedStore-shaped table of the keys
// user<i> for i = first, first+step, ...: 24-byte keys, each with a 16-byte
// value pointer, about 90 records to a 4 KiB block.
func sortedStoreTable(b *testing.B, n, first, step int) (*Reader, [][]byte) {
	fs := vfs.NewMem()
	f, err := fs.Create("s.sst")
	if err != nil {
		b.Fatal(err)
	}
	bl := NewBuilder(f, BuilderOptions{})
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%020d", first+i*step))
		ptr := record.ValuePtr{Partition: 1, LogNum: 3, Offset: uint32(i * 1032), Length: 1024}
		bl.Add(record.Record{Key: keys[i], Seq: uint64(i + 1), Kind: record.KindSetPtr, Value: ptr.Encode(nil)})
	}
	if _, err := bl.Finish(); err != nil {
		b.Fatal(err)
	}
	f.Close()
	rf, err := fs.Open("s.sst")
	if err != nil {
		b.Fatal(err)
	}
	r, err := Open(rf)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { r.Close() })
	return r, keys
}

// BenchmarkGetCached is a point read whose block is resident, filled by an
// earlier point read: hit finds a stored key, absent a key between two
// stored ones, and many-tables spreads hits over 48 tables whose resident
// blocks (about 9 MiB) do not fit in L2.
func BenchmarkGetCached(b *testing.B) {
	const perTable = 4096
	run := func(b *testing.B, tables, first int) {
		c := cache.New(64<<20, 0)
		readers := make([]*Reader, tables)
		var probes [][][]byte
		for t := range readers {
			r, keys := sortedStoreTable(b, perTable, 0, 2)
			r.SetCache(c, uint64(t+1))
			for _, k := range keys {
				r.Get(k)
			}
			readers[t] = r
			ks := make([][]byte, len(keys))
			for i := range ks {
				ks[i] = []byte(fmt.Sprintf("user%020d", 2*i+first))
			}
			probes = append(probes, ks)
		}
		b.ReportAllocs()
		b.ResetTimer()
		x := uint32(1)
		for i := 0; i < b.N; i++ {
			x = x*1664525 + 1013904223
			t, k := int(x>>8)%tables, int(x>>16)%perTable
			rec, ok, err := readers[t].Get(probes[t][k])
			if ok != (first == 0) || err != nil {
				b.Fatal(ok, err)
			}
			benchSink = rec
		}
	}
	b.Run("hit", func(b *testing.B) { run(b, 1, 0) })
	b.Run("absent", func(b *testing.B) { run(b, 1, 1) })
	b.Run("many-tables", func(b *testing.B) { run(b, 48, 0) })
}
