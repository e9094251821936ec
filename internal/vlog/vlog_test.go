package vlog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"unikv/internal/record"
	"unikv/internal/vfs"
)

func newMgr(t *testing.T, fs vfs.FS, opts Options) *Manager {
	t.Helper()
	m, err := Open(fs, "p0", opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAppendRead(t *testing.T) {
	fs := vfs.NewMem()
	m := newMgr(t, fs, Options{Partition: 3})
	defer m.Close()

	var ptrs []record.ValuePtr
	var vals [][]byte
	for i := 0; i < 100; i++ {
		v := []byte(fmt.Sprintf("value-%04d-%s", i, bytes.Repeat([]byte("x"), i)))
		ptr, err := m.Append(v)
		if err != nil {
			t.Fatal(err)
		}
		if ptr.Partition != 3 {
			t.Fatalf("partition=%d", ptr.Partition)
		}
		ptrs = append(ptrs, ptr)
		vals = append(vals, v)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, ptr := range ptrs {
		got, err := m.Read(ptr)
		if err != nil {
			t.Fatalf("Read(%v): %v", ptr, err)
		}
		if !bytes.Equal(got, vals[i]) {
			t.Fatalf("value %d mismatch", i)
		}
	}
}

func TestRotation(t *testing.T) {
	fs := vfs.NewMem()
	m := newMgr(t, fs, Options{MaxLogSize: 256})
	defer m.Close()

	seen := map[uint32]bool{}
	for i := 0; i < 50; i++ {
		ptr, err := m.Append(make([]byte, 64))
		if err != nil {
			t.Fatal(err)
		}
		seen[ptr.LogNum] = true
	}
	if len(seen) < 5 {
		t.Fatalf("expected several logs, got %d", len(seen))
	}
	if got := len(m.LogNums()); got != len(seen) {
		t.Fatalf("LogNums()=%d seen=%d", got, len(seen))
	}
	if m.TotalSize() != 50*(64+headerLen) {
		t.Fatalf("TotalSize=%d", m.TotalSize())
	}
}

func TestReopenContinues(t *testing.T) {
	fs := vfs.NewMem()
	m := newMgr(t, fs, Options{})
	ptr1, _ := m.Append([]byte("first"))
	m.Close()

	m2 := newMgr(t, fs, Options{})
	defer m2.Close()
	ptr2, err := m2.Append([]byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if ptr2.LogNum <= ptr1.LogNum {
		t.Fatalf("log numbers must advance across reopen: %d then %d", ptr1.LogNum, ptr2.LogNum)
	}
	// Both readable.
	if v, err := m2.Read(ptr1); err != nil || string(v) != "first" {
		t.Fatalf("old value: %q %v", v, err)
	}
	if v, err := m2.Read(ptr2); err != nil || string(v) != "second" {
		t.Fatalf("new value: %q %v", v, err)
	}
}

func TestBadPointer(t *testing.T) {
	fs := vfs.NewMem()
	m := newMgr(t, fs, Options{})
	defer m.Close()
	ptr, _ := m.Append([]byte("valid-value"))

	bad := ptr
	bad.Length += 5
	if _, err := m.Read(bad); err == nil {
		t.Fatal("wrong length accepted")
	}
	bad = ptr
	bad.Offset += 3
	if _, err := m.Read(bad); err == nil {
		t.Fatal("misaligned offset accepted")
	}
	bad = ptr
	bad.LogNum += 99
	if _, err := m.Read(bad); err == nil {
		t.Fatal("missing log accepted")
	}
}

func TestCorruptValueDetected(t *testing.T) {
	fs := vfs.NewMem()
	m := newMgr(t, fs, Options{})
	ptr, _ := m.Append([]byte("payload-payload"))
	m.Close()

	name := "p0/" + LogName(ptr.LogNum)
	data, _ := fs.ReadFile(name)
	data[headerLen+2] ^= 0xff
	fs.WriteFile(name, data)

	m2 := newMgr(t, fs, Options{})
	defer m2.Close()
	if _, err := m2.Read(ptr); err == nil {
		t.Fatal("corrupt value passed checksum")
	}
}

// TestTruncatedTailRejected simulates a crash that loses the tail of a
// log file. Pointers past the cut must fail loudly — ReadAt tolerates
// short reads (n < len(buf) with io.EOF), and the undecoded stale/zero
// suffix must never be returned as value bytes. Values before the cut
// stay readable, and VerifyLog counts the intact prefix then reports the
// damage.
func TestTruncatedTailRejected(t *testing.T) {
	fs := vfs.NewMem()
	m := newMgr(t, fs, Options{})
	var ptrs []record.ValuePtr
	var vals [][]byte
	for i := 0; i < 10; i++ {
		v := []byte(fmt.Sprintf("value-%04d-%s", i, bytes.Repeat([]byte("y"), 30)))
		ptr, err := m.Append(v)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, ptr)
		vals = append(vals, v)
	}
	m.Close()

	last := ptrs[len(ptrs)-1]
	name := "p0/" + LogName(last.LogNum)
	whole, err := fs.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{
		int(last.Offset) + 3,             // mid-header
		int(last.Offset) + headerLen + 5, // mid-value
	} {
		fs.WriteFile(name, whole[:cut])
		m2 := newMgr(t, fs, Options{})
		if v, err := m2.Read(last); err == nil {
			t.Fatalf("cut=%d: Read returned %q past the truncation point", cut, v)
		}
		if v, err := m2.ReadUncached(last); err == nil {
			t.Fatalf("cut=%d: ReadUncached returned %q past the truncation point", cut, v)
		}
		for i := 0; i < len(ptrs)-1; i++ {
			got, err := m2.Read(ptrs[i])
			if err != nil || !bytes.Equal(got, vals[i]) {
				t.Fatalf("cut=%d: intact value %d unreadable: %v", cut, i, err)
			}
		}
		n, err := m2.VerifyLog(last.LogNum)
		if err == nil {
			t.Fatalf("cut=%d: VerifyLog missed the truncation", cut)
		}
		if n != len(ptrs)-1 {
			t.Fatalf("cut=%d: VerifyLog counted %d intact values, want %d", cut, n, len(ptrs)-1)
		}
		m2.Close()
	}
}

// spanOver appends n 1 KiB values and returns their pointers, the values,
// and the extent [lo, hi) of the log bytes that hold them.
func spanOver(t testing.TB, m *Manager, n int) (ptrs []record.ValuePtr, vals [][]byte, lo, hi int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		v := bytes.Repeat([]byte{byte('a' + i%26)}, 1024)
		ptr, err := m.Append(v)
		if err != nil {
			t.Fatal(err)
		}
		ptrs, vals = append(ptrs, ptr), append(vals, v)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	last := ptrs[n-1]
	return ptrs, vals, int64(ptrs[0].Offset), int64(last.Offset) + headerLen + int64(last.Length)
}

// TestReadSpan: one ReadSpan serves every value of a run through SpanValue
// with a single file read, and each value is cap-limited to itself.
func TestReadSpan(t *testing.T) {
	fs := vfs.NewMem()
	m := newMgr(t, fs, Options{})
	defer m.Close()
	ptrs, vals, lo, hi := spanOver(t, m, 20)

	readsBefore := fs.Counters().ReadOps.Load()
	span, err := m.ReadSpan(ptrs[0].LogNum, lo, make([]byte, hi-lo))
	if err != nil {
		t.Fatal(err)
	}
	for i, ptr := range ptrs {
		v, err := SpanValue(span, lo, ptr)
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if !bytes.Equal(v, vals[i]) {
			t.Fatalf("value %d mismatch", i)
		}
		if cap(v) != len(v) {
			t.Fatalf("value %d: cap %d reaches past its %d bytes", i, cap(v), len(v))
		}
	}
	if got := fs.Counters().ReadOps.Load() - readsBefore; got != 1 {
		t.Fatalf("%d file reads for one span, want 1", got)
	}
}

// TestReadSpanShortAtTail: a span asked for past the log's end returns the
// bytes that exist; the pointer reaching past them is rejected in-span and
// by the per-value read, its neighbours are served.
func TestReadSpanShortAtTail(t *testing.T) {
	fs := vfs.NewMem()
	m := newMgr(t, fs, Options{})
	ptrs, vals, lo, hi := spanOver(t, m, 4)
	m.Close()
	// Tear the last frame, as a crash before the sync would.
	name := "p0/" + LogName(ptrs[0].LogNum)
	data, err := fs.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(name, data[:len(data)-100]); err != nil {
		t.Fatal(err)
	}
	m = newMgr(t, fs, Options{})
	defer m.Close()

	span, err := m.ReadSpan(ptrs[0].LogNum, lo, make([]byte, hi-lo))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(span)) != hi-lo-100 {
		t.Fatalf("span holds %d bytes, want the %d that exist", len(span), hi-lo-100)
	}
	for i, ptr := range ptrs[:3] {
		if v, err := SpanValue(span, lo, ptr); err != nil || !bytes.Equal(v, vals[i]) {
			t.Fatalf("value %d before the tear: %v", i, err)
		}
	}
	if _, err := SpanValue(span, lo, ptrs[3]); !errors.Is(err, ErrBadPointer) {
		t.Fatalf("torn value in span: %v, want ErrBadPointer", err)
	}
	if _, err := m.ReadUncached(ptrs[3]); !errors.Is(err, ErrBadPointer) {
		t.Fatalf("torn value read alone: %v, want ErrBadPointer", err)
	}
}

// TestSpanValueFlippedByte: a flipped byte inside a span fails exactly the
// frame it sits in — in the span and on the per-value read a scan falls
// back to — while the neighbours still decode from the same span.
func TestSpanValueFlippedByte(t *testing.T) {
	fs := vfs.NewMem()
	m := newMgr(t, fs, Options{})
	ptrs, vals, lo, hi := spanOver(t, m, 5)
	m.Close()
	name := "p0/" + LogName(ptrs[0].LogNum)
	data, err := fs.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	data[int(ptrs[2].Offset)+headerLen+17] ^= 0x40
	if err := fs.WriteFile(name, data); err != nil {
		t.Fatal(err)
	}
	m = newMgr(t, fs, Options{})
	defer m.Close()

	span, err := m.ReadSpan(ptrs[0].LogNum, lo, make([]byte, hi-lo))
	if err != nil {
		t.Fatal(err)
	}
	for i, ptr := range ptrs {
		v, err := SpanValue(span, lo, ptr)
		if i == 2 {
			if !errors.Is(err, ErrBadPointer) {
				t.Fatalf("flipped frame in span: %v, want ErrBadPointer", err)
			}
			if _, err := m.ReadUncached(ptr); !errors.Is(err, ErrBadPointer) {
				t.Fatalf("flipped frame read alone: %v, want ErrBadPointer", err)
			}
			continue
		}
		if err != nil || !bytes.Equal(v, vals[i]) {
			t.Fatalf("neighbour %d of the flipped frame: %v", i, err)
		}
	}
}

// TestSpanValueBounds: pointers straddling either end of a span, or wholly
// outside it, are rejected, as is a pointer whose length disagrees with
// the frame.
func TestSpanValueBounds(t *testing.T) {
	fs := vfs.NewMem()
	m := newMgr(t, fs, Options{})
	defer m.Close()
	ptrs, _, _, _ := spanOver(t, m, 4)

	// A span over the middle two frames, cut 10 bytes short of the third's end.
	lo := int64(ptrs[1].Offset)
	length := int64(ptrs[3].Offset) - lo - 10
	span, err := m.ReadSpan(ptrs[0].LogNum, lo, make([]byte, length))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SpanValue(span, lo, ptrs[1]); err != nil {
		t.Fatalf("frame inside the span: %v", err)
	}
	short := ptrs[1]
	short.Length--
	for name, ptr := range map[string]record.ValuePtr{
		"before the span":         ptrs[0],
		"straddling the span end": ptrs[2],
		"after the span":          ptrs[3],
		"wrong length":            short,
	} {
		if _, err := SpanValue(span, lo, ptr); !errors.Is(err, ErrBadPointer) {
			t.Errorf("pointer %s: %v, want ErrBadPointer", name, err)
		}
	}
}

// TestReaderTableConcurrent: point reads load the handle table without the
// append mutex while appends rotate logs and sealed logs are removed; run
// under -race.
func TestReaderTableConcurrent(t *testing.T) {
	m := newMgr(t, vfs.NewMem(), Options{MaxLogSize: 4 << 10})
	defer m.Close()
	keep, _, _, _ := spanOver(t, m, 8) // logs 0 and 1: read throughout, never removed

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, ptr := range keep {
					if _, err := m.ReadUncached(ptr); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		ptr, err := m.Append(bytes.Repeat([]byte{'z'}, 1024))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.ReadUncached(ptr); err != nil { // opens a handle on the new log
			t.Fatal(err)
		}
		if prev := ptr.LogNum - 1; prev > keep[len(keep)-1].LogNum {
			m.Remove(prev) // sealed by the rotation; an error means it is already gone
		}
	}
	close(stop)
	wg.Wait()
}

func TestGarbageAccounting(t *testing.T) {
	fs := vfs.NewMem()
	m := newMgr(t, fs, Options{})
	defer m.Close()
	m.Append([]byte("x"))
	m.AddGarbage(0, 100)
	m.AddGarbage(0, 50)
	if m.Garbage() != 150 {
		t.Fatalf("Garbage=%d", m.Garbage())
	}
}

func TestSealAndRemove(t *testing.T) {
	fs := vfs.NewMem()
	m := newMgr(t, fs, Options{})
	defer m.Close()
	ptr, _ := m.Append([]byte("val"))
	if _, ok := m.ActiveNum(); !ok {
		t.Fatal("no active log after append")
	}
	if err := m.Remove(ptr.LogNum); err == nil {
		t.Fatal("removed the active log")
	}
	if err := m.SealActive(); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.ActiveNum(); ok {
		t.Fatal("active after seal")
	}
	if err := m.Remove(ptr.LogNum); err != nil {
		t.Fatal(err)
	}
	if len(m.LogNums()) != 0 {
		t.Fatalf("LogNums=%v after remove", m.LogNums())
	}
	if _, err := m.Read(ptr); err == nil {
		t.Fatal("read from removed log succeeded")
	}
	// New appends land in a new log.
	ptr2, err := m.Append([]byte("next"))
	if err != nil {
		t.Fatal(err)
	}
	if ptr2.LogNum == ptr.LogNum {
		t.Fatal("log number reused")
	}
}

func TestParseLogName(t *testing.T) {
	if n, ok := ParseLogName(LogName(42)); !ok || n != 42 {
		t.Fatalf("round trip failed: %d %v", n, ok)
	}
	for _, bad := range []string{"vlog-x.log", "table-00000001.sst", "vlog-1.data", ""} {
		if _, ok := ParseLogName(bad); ok {
			t.Fatalf("parsed %q", bad)
		}
	}
}

// TestQuickRoundTrip stores random values across rotating logs and reads
// them all back, in random order.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		fs := vfs.NewMem()
		m, err := Open(fs, "p", Options{MaxLogSize: 1024})
		if err != nil {
			return false
		}
		defer m.Close()
		n := rnd.Intn(100) + 1
		vals := make([][]byte, n)
		ptrs := make([]record.ValuePtr, n)
		for i := 0; i < n; i++ {
			v := make([]byte, rnd.Intn(300))
			rnd.Read(v)
			vals[i] = v
			ptr, err := m.Append(v)
			if err != nil {
				return false
			}
			ptrs[i] = ptr
		}
		order := rnd.Perm(n)
		for _, i := range order {
			got, err := m.Read(ptrs[i])
			if err != nil || !bytes.Equal(got, vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDedicatedLog(t *testing.T) {
	fs := vfs.NewMem()
	m := newMgr(t, fs, Options{})
	defer m.Close()

	// Interleave shared-log appends with a dedicated log.
	appendFor := func(part uint32, v string) record.ValuePtr {
		var b Batch
		b.Add([]byte(v))
		ptrs, err := m.AppendBatch(part, &b, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ptrs[0]
	}
	p1 := appendFor(1, "shared-a")
	d, err := m.NewDedicatedLog(7)
	if err != nil {
		t.Fatal(err)
	}
	dp1, err := d.Append([]byte("gc-value-1"))
	if err != nil {
		t.Fatal(err)
	}
	p2 := appendFor(1, "shared-b")
	dp2, _ := d.Append([]byte("gc-value-2"))
	if dp1.LogNum == p1.LogNum {
		t.Fatal("dedicated log shares number with active log")
	}
	if dp1.Partition != 7 || p1.Partition != 1 {
		t.Fatalf("partition stamps wrong: %v %v", dp1, p1)
	}
	if d.Num() != dp1.LogNum {
		t.Fatalf("Num()=%d", d.Num())
	}
	if d.Size() == 0 {
		t.Fatal("Size()=0 after appends")
	}
	nonEmpty, err := d.Finish()
	if err != nil || !nonEmpty {
		t.Fatalf("Finish: %v %v", nonEmpty, err)
	}
	for _, c := range []struct {
		ptr  record.ValuePtr
		want string
	}{{p1, "shared-a"}, {p2, "shared-b"}, {dp1, "gc-value-1"}, {dp2, "gc-value-2"}} {
		got, err := m.Read(c.ptr)
		if err != nil || string(got) != c.want {
			t.Fatalf("Read(%v)=%q,%v want %q", c.ptr, got, err, c.want)
		}
	}
}

func TestDedicatedLogEmpty(t *testing.T) {
	fs := vfs.NewMem()
	m := newMgr(t, fs, Options{})
	defer m.Close()
	d, _ := m.NewDedicatedLog(1)
	num := d.Num()
	nonEmpty, err := d.Finish()
	if err != nil || nonEmpty {
		t.Fatalf("Finish empty: %v %v", nonEmpty, err)
	}
	for _, n := range m.LogNums() {
		if n == num {
			t.Fatal("empty dedicated log not cleaned up")
		}
	}
	// Idempotent Finish.
	if _, err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyLog(t *testing.T) {
	fs := vfs.NewMem()
	m := newMgr(t, fs, Options{})
	var last record.ValuePtr
	for i := 0; i < 50; i++ {
		last, _ = m.Append([]byte(fmt.Sprintf("value-%03d", i)))
	}
	m.Sync()
	n, err := m.VerifyLog(last.LogNum)
	if err != nil || n != 50 {
		t.Fatalf("VerifyLog: n=%d err=%v", n, err)
	}
	m.Close()

	name := "p0/" + LogName(last.LogNum)
	data, _ := fs.ReadFile(name)
	data[len(data)/2] ^= 0xff
	fs.WriteFile(name, data)
	m2 := newMgr(t, fs, Options{})
	defer m2.Close()
	if _, err := m2.VerifyLog(last.LogNum); err == nil {
		t.Fatal("corruption not detected by VerifyLog")
	}
	if _, err := m2.VerifyLog(9999); err == nil {
		t.Fatal("missing log verified")
	}
}

var benchSink []byte

// benchLog is a manager whose first log holds n 1 KiB values.
func benchLog(b *testing.B, n int) (*Manager, []record.ValuePtr, int64, int64) {
	b.Helper()
	m, err := Open(vfs.NewMem(), "p0", Options{MaxLogSize: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { m.Close() })
	ptrs, _, lo, hi := spanOver(b, m, n)
	return m, ptrs, lo, hi
}

func BenchmarkAppend(b *testing.B) {
	m, err := Open(vfs.NewMem(), "p0", Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	value := bytes.Repeat([]byte("v"), 1024)
	b.ReportAllocs()
	b.SetBytes(int64(len(value)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Append(value); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadPoint is the per-value read: the slow-path Get's value
// fetch, and what a scan pays for a pointer outside any run.
func BenchmarkReadPoint(b *testing.B) {
	m, ptrs, _, _ := benchLog(b, 4096)
	b.ReportAllocs()
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := m.ReadUncached(ptrs[i*61%len(ptrs)])
		if err != nil {
			b.Fatal(err)
		}
		benchSink = v
	}
}

// BenchmarkReadSpan64 is a scan's readahead: one span over 64 consecutive
// 1 KiB values read into one reused buffer, each verified and sub-sliced
// in place.
func BenchmarkReadSpan64(b *testing.B) {
	m, ptrs, lo, hi := benchLog(b, 64)
	buf := make([]byte, hi-lo)
	b.ReportAllocs()
	b.SetBytes(64 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		span, err := m.ReadSpan(ptrs[0].LogNum, lo, buf)
		if err != nil {
			b.Fatal(err)
		}
		for _, ptr := range ptrs {
			v, err := SpanValue(span, lo, ptr)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = v
		}
	}
}
