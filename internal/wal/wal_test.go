package wal

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"unikv/internal/vfs"
)

func roundTrip(t *testing.T, records [][]byte) [][]byte {
	t.Helper()
	fs := vfs.NewMem()
	f, err := fs.Create("log")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f)
	for _, rec := range records {
		if err := w.AddRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rf, err := fs.Open("log")
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	r := NewReader(rf)
	var got [][]byte
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
	}
	return got
}

func TestEmptyLog(t *testing.T) {
	got := roundTrip(t, nil)
	if len(got) != 0 {
		t.Fatalf("got %d records from empty log", len(got))
	}
}

func TestSmallRecords(t *testing.T) {
	in := [][]byte{[]byte("one"), []byte(""), []byte("three"), bytes.Repeat([]byte("x"), 100)}
	got := roundTrip(t, in)
	if len(got) != len(in) {
		t.Fatalf("got %d records want %d", len(got), len(in))
	}
	for i := range in {
		if !bytes.Equal(got[i], in[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestLargeRecordSpansBlocks(t *testing.T) {
	big := bytes.Repeat([]byte("abcdefgh"), 3*BlockSize/8) // 3 blocks worth
	in := [][]byte{[]byte("pre"), big, []byte("post")}
	got := roundTrip(t, in)
	if len(got) != 3 {
		t.Fatalf("got %d records", len(got))
	}
	if !bytes.Equal(got[1], big) {
		t.Fatal("large record mangled")
	}
}

func TestBlockBoundaryPadding(t *testing.T) {
	// A record sized to leave < headerLen bytes in the block forces padding.
	rec1 := bytes.Repeat([]byte("a"), BlockSize-headerLen-headerLen-3)
	in := [][]byte{rec1, []byte("tail-record")}
	got := roundTrip(t, in)
	if len(got) != 2 || !bytes.Equal(got[1], []byte("tail-record")) {
		t.Fatalf("padding handling broken: %d records", len(got))
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rnd := rand.New(rand.NewSource(seed))
		var in [][]byte
		for i := 0; i < int(n%16)+1; i++ {
			rec := make([]byte, rnd.Intn(2*BlockSize))
			rnd.Read(rec)
			in = append(in, rec)
		}
		fs := vfs.NewMem()
		wf, _ := fs.Create("log")
		w := NewWriter(wf)
		for _, rec := range in {
			if err := w.AddRecord(rec); err != nil {
				return false
			}
		}
		w.Close()
		rf, _ := fs.Open("log")
		defer rf.Close()
		r := NewReader(rf)
		for i := 0; ; i++ {
			rec, err := r.Next()
			if err == io.EOF {
				return i == len(in)
			}
			if err != nil || i >= len(in) || !bytes.Equal(rec, in[i]) {
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestTornTail verifies that truncating the log mid-record recovers every
// record before the tear and drops the torn one.
func TestTornTail(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("log")
	w := NewWriter(f)
	var in [][]byte
	for i := 0; i < 20; i++ {
		rec := []byte(fmt.Sprintf("record-%02d-%s", i, bytes.Repeat([]byte("p"), 50)))
		in = append(in, rec)
		w.AddRecord(rec)
	}
	w.Close()

	full, _ := fs.ReadFile("log")
	for _, cut := range []int{len(full) - 1, len(full) - 10, len(full) / 2, headerLen + 3} {
		fs2 := vfs.NewMem()
		fs2.WriteFile("log", full[:cut])
		rf, _ := fs2.Open("log")
		r := NewReader(rf)
		n := 0
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec, in[n]) {
				t.Fatalf("cut=%d: record %d corrupted", cut, n)
			}
			n++
		}
		rf.Close()
		if n > len(in) {
			t.Fatalf("cut=%d: phantom records", cut)
		}
		// Torn exactly when the cut lies inside a record.
		if torn := cut > n*(headerLen+len(in[0])); r.Damaged() || r.Torn() != torn {
			t.Fatalf("cut=%d: damaged=%v torn=%v, want torn=%v", cut, r.Damaged(), r.Torn(), torn)
		}
	}
}

// TestCorruptMiddle flips a byte mid-log, and in the final record; recovery
// must stop at the flip, not return garbage, and report damage wherever the
// log tells it from a crash's cut: a complete fragment failing its checksum,
// or a length running past the end with complete fragments behind it. A
// grown length in the final fragment reads exactly like a cut, and is
// reported torn.
func TestCorruptMiddle(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("log")
	w := NewWriter(f)
	for i := 0; i < 10; i++ {
		w.AddRecord([]byte(fmt.Sprintf("rec-%d", i)))
	}
	w.Close()
	clean, _ := fs.ReadFile("log")
	last := len(clean) - 12 // records are 7-byte header + 5-byte payload
	for _, c := range []struct {
		off     int
		damaged bool
	}{
		{38, true},             // a checksum byte of record 3
		{40, true},             // the low length byte of record 3: runs past the end
		{len(clean) - 2, true}, // the final payload
		{last + 4, false},      // the final length: indistinguishable from a cut
	} {
		data := bytes.Clone(clean)
		data[c.off] ^= 0xff
		fs2 := vfs.NewMem()
		fs2.WriteFile("log", data)
		rf, _ := fs2.Open("log")
		r := NewReader(rf)
		n := 0
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("rec-%d", n)
			if string(rec) != want {
				t.Fatalf("record %d = %q want %q", n, rec, want)
			}
			n++
		}
		rf.Close()
		if n >= 10 || r.Damaged() != c.damaged || r.Torn() == c.damaged {
			t.Fatalf("flip at %d: %d records, damaged=%v torn=%v, want damaged=%v",
				c.off, n, r.Damaged(), r.Torn(), c.damaged)
		}
	}
}

// TestPageHole zeroes 4 KiB pages of a log whose records each frame to
// exactly one page, as a crash that persisted later unsynced pages but not
// an earlier one leaves it. Replay must stop at the hole: records behind it
// are not a prefix of the write order. A hole with intact records behind it
// is damage; zeros to the end of the log are a torn tail.
func TestPageHole(t *testing.T) {
	const page, n = 4096, 200
	fs := vfs.NewMem()
	f, _ := fs.Create("log")
	w := NewWriter(f)
	for i := 0; i < n; i++ {
		rec := bytes.Repeat([]byte{byte(i)}, page-headerLen)
		if err := w.AddRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	clean, _ := fs.ReadFile("log")
	if len(clean) != n*page {
		t.Fatalf("log is %d bytes, want %d", len(clean), n*page)
	}
	for _, c := range []struct {
		from, to int // zeroed pages [from, to)
		damaged  bool
	}{
		{3, 4, true},    // record 3's page; records 4..199 intact behind it
		{8, 9, true},    // the first page of a block
		{197, n, false}, // every page from record 197 on: a tail the crash lost
	} {
		data := bytes.Clone(clean)
		clear(data[c.from*page : c.to*page])
		fs.WriteFile("hole", data)
		rf, _ := fs.Open("hole")
		r := NewReader(rf)
		var got [][]byte
		for {
			rec, err := r.Next()
			if err != nil {
				break
			}
			got = append(got, rec)
		}
		rf.Close()
		if len(got) != c.from {
			t.Fatalf("pages [%d,%d) zeroed: %d records replayed, want %d", c.from, c.to, len(got), c.from)
		}
		for i, rec := range got {
			if len(rec) != page-headerLen || rec[0] != byte(i) {
				t.Fatalf("pages [%d,%d) zeroed: record %d is wrong", c.from, c.to, i)
			}
		}
		if r.Damaged() != c.damaged || r.Torn() == c.damaged {
			t.Fatalf("pages [%d,%d) zeroed: damaged=%v torn=%v, want damaged=%v",
				c.from, c.to, r.Damaged(), r.Torn(), c.damaged)
		}
	}
}

func TestWriterClosed(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("log")
	w := NewWriter(f)
	w.Close()
	if err := w.AddRecord([]byte("x")); err != ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := w.Sync(); err != ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestWriterSize(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("log")
	w := NewWriter(f)
	w.AddRecord(make([]byte, 100))
	if w.Size() != 100+headerLen {
		t.Fatalf("Size=%d", w.Size())
	}
}

// goldenStream is the fixed record stream behind TestGoldenBytes: seeded
// random sizes up to 3 KiB, 40 KiB and 100 KiB records that fragment across
// block boundaries, an empty record, and — the delicate cases — records
// crafted to end exactly 0..7 bytes short of a block boundary, so the next
// record meets every padding length (< headerLen bytes left: zero padding)
// and the leftover == headerLen case (a zero-length first fragment).
func goldenStream(t testing.TB, add func(rec []byte), size func() int64) {
	rnd := rand.New(rand.NewSource(42))
	payload := func(n int) []byte {
		b := make([]byte, n)
		rnd.Read(b)
		return b
	}
	for i := 0; i < 200; i++ {
		switch {
		case i%50 == 7:
			add(payload(40 << 10))
		case i%97 == 3:
			add(payload(100 << 10))
		case i == 11:
			add(nil)
		default:
			add(payload(rnd.Intn(3 << 10)))
		}
	}
	for k := 0; k <= headerLen; k++ {
		// Land the end of a record exactly k bytes before the boundary.
		room := BlockSize - int(size()%BlockSize)
		if room < 2*headerLen+k {
			add(payload(room)) // spills into the next block; recompute
			room = BlockSize - int(size()%BlockSize)
		}
		add(payload(room - headerLen - k))
		if got := BlockSize - int(size()%BlockSize); got != k && !(k == 0 && got == BlockSize) {
			t.Fatalf("crafted record left %d bytes in the block, want %d", got, k)
		}
		add(payload(100 + k)) // meets the k-byte tail
	}
}

// goldenWALSum is the SHA-256 of the file the parent commit's writer (one
// Write per fragment, allocating checksum) produced for goldenStream. The
// one-Write-per-record writer must produce the same bytes.
const goldenWALSum = "bc37467f9d9d2758365a0300f7aa03e4ad8293c2424e2703865ec9896becdd17"

func TestGoldenBytes(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("log")
	w := NewWriter(f)
	var want [][]byte
	goldenStream(t, func(rec []byte) {
		if err := w.AddRecord(rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}, w.Size)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("log")
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != w.Size() {
		t.Fatalf("file holds %d bytes, writer counted %d", len(data), w.Size())
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != goldenWALSum {
		t.Fatalf("WAL bytes changed: sha256 %s, want %s", got, goldenWALSum)
	}
	// And the file replays to the stream.
	rf, _ := fs.Open("log")
	r := NewReader(rf)
	for i, rec := range want {
		got, err := r.Next()
		if err != nil || !bytes.Equal(got, rec) {
			t.Fatalf("record %d of %d: %d bytes, %v; want %d bytes", i, len(want), len(got), err, len(rec))
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("trailing record: %v", err)
	}
}

// TestOneWritePerRecord pins the write-path contract: however many
// fragments and padding bytes a record needs, it reaches the file as one
// Write call.
func TestOneWritePerRecord(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("log")
	w := NewWriter(f)
	n := 0
	goldenStream(t, func(rec []byte) {
		if err := w.AddRecord(rec); err != nil {
			t.Fatal(err)
		}
		n++
	}, w.Size)
	if got := fs.Counters().WriteOps.Load(); got != int64(n) {
		t.Fatalf("%d records took %d writes", n, got)
	}
}

// readAll replays a log file to the end.
func readAll(t *testing.T, fs vfs.FS, name string) [][]byte {
	t.Helper()
	rf, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	r := NewReader(rf)
	var out [][]byte
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
}

// TestRejectedWriteLeavesLogUsable: a write the file system rejects whole
// lands nothing — not even the first fragments of a multi-fragment record,
// which the one-Write-per-fragment writer used to strand — so the writer
// carries on and every record acknowledged before and after replays.
func TestRejectedWriteLeavesLogUsable(t *testing.T) {
	inner := vfs.NewMem()
	ffs := vfs.NewFail(inner)
	f, _ := ffs.Create("log")
	w := NewWriter(f)
	if err := w.AddRecord([]byte("before")); err != nil {
		t.Fatal(err)
	}
	ffs.ArmPlan(vfs.FailPlan{Fail: 1, Kinds: vfs.OpWrite})
	if err := w.AddRecord(bytes.Repeat([]byte("x"), 100<<10)); err == nil {
		t.Fatal("armed write succeeded")
	}
	if w.Torn() {
		t.Fatal("an all-or-nothing rejection must not poison the writer")
	}
	if err := w.AddRecord([]byte("after")); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, inner, "log")
	if len(got) != 2 || string(got[0]) != "before" || string(got[1]) != "after" {
		t.Fatalf("replayed %q", got)
	}
}

// TestTornWritePoisonsWriter: a short write of a multi-fragment record
// leaves a tear replay stops at, so the writer must refuse everything
// after it (the owner switches logs) rather than append records no reader
// would ever reach.
func TestTornWritePoisonsWriter(t *testing.T) {
	inner := vfs.NewMem()
	ffs := vfs.NewFail(inner)
	f, _ := ffs.Create("log")
	w := NewWriter(f)
	if err := w.AddRecord([]byte("before")); err != nil {
		t.Fatal(err)
	}
	// 40000 bytes: the whole first fragment and part of the second.
	ffs.ArmPlan(vfs.FailPlan{Fail: 1, Kinds: vfs.OpWrite, TornBytes: 40000})
	if err := w.AddRecord(bytes.Repeat([]byte("x"), 100<<10)); err == nil {
		t.Fatal("armed write succeeded")
	}
	if !w.Torn() {
		t.Fatal("a short write must poison the writer")
	}
	if err := w.AddRecord([]byte("after")); err == nil {
		t.Fatal("torn writer accepted a record")
	}
	got := readAll(t, inner, "log")
	if len(got) != 1 || string(got[0]) != "before" {
		t.Fatalf("replayed %d records, want the one acknowledged before the tear", len(got))
	}
}

// discardFile swallows writes, so the benchmarks time the writer's own
// work (framing, checksums, copies) and not the in-memory file system's
// append growth, which costs several times as much per byte.
type discardFile struct{ vfs.File }

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Size() (int64, error)        { return 0, nil }

func benchAddRecord(b *testing.B, size int) {
	rec := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(rec)
	w := NewWriter(discardFile{})
	b.ReportAllocs()
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.AddRecord(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAddRecord1K(b *testing.B)  { benchAddRecord(b, 1<<10) }
func BenchmarkAddRecord40K(b *testing.B) { benchAddRecord(b, 40<<10) }
