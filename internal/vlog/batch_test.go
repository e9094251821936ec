package vlog

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"unikv/internal/record"
	"unikv/internal/vfs"
)

// goldenValues is the fixed value stream behind TestGoldenBytes: seeded
// sizes up to 3 KiB with a few empty and 40 KiB values, against a 64 KiB
// MaxLogSize so the stream rotates through a dozen logs.
func goldenValues() [][]byte {
	rnd := rand.New(rand.NewSource(42))
	vals := make([][]byte, 600)
	for i := range vals {
		n := rnd.Intn(3 << 10)
		switch {
		case i%101 == 9:
			n = 40 << 10
		case i%37 == 0:
			n = 0
		}
		vals[i] = make([]byte, n)
		rnd.Read(vals[i])
	}
	return vals
}

const goldenMaxLog = 64 << 10

// dirSum hashes every log file of dir, names included, in name order.
func dirSum(t *testing.T, fs vfs.FS, dir string) string {
	t.Helper()
	names, err := fs.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, name := range names {
		data, err := fs.ReadFile(dir + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", name, len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenLogSum is dirSum of the directory the parent commit's manager
// produced by Append-ing goldenValues one at a time, every fifth value
// going to a dedicated log instead. Value-at-a-time appends, batched
// appends of any batch size, and staged dedicated appends must all produce
// the same files: same frames, same rotation points.
const goldenLogSum = "60b774ef4f8d7a04856b76580fee7b6809bb40d0f7b6a2b4d902295266eb99f3"

func TestGoldenBytes(t *testing.T) {
	vals := goldenValues()
	for _, batch := range []int{0, 1, 7, 64, len(vals)} { // 0: value-at-a-time Append
		fs := vfs.NewMem()
		m, err := Open(fs, "p0", Options{MaxLogSize: goldenMaxLog, Partition: 3})
		if err != nil {
			t.Fatal(err)
		}
		d, err := m.NewDedicatedLog(3)
		if err != nil {
			t.Fatal(err)
		}
		ptrs := make([]record.ValuePtr, len(vals))
		var b Batch
		var staged []int
		flush := func() {
			got, err := m.AppendBatch(3, &b, nil)
			if err != nil {
				t.Fatal(err)
			}
			for j, i := range staged {
				ptrs[i] = got[j]
			}
			b.Reset()
			staged = staged[:0]
		}
		for i, v := range vals {
			switch {
			case i%5 == 4:
				ptrs[i], err = d.Append(v)
			case batch == 0:
				ptrs[i], err = m.Append(v)
			default:
				b.Add(v)
				staged = append(staged, i)
				if len(staged) == batch {
					flush()
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		flush()
		if _, err := d.Finish(); err != nil {
			t.Fatal(err)
		}
		if err := m.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := dirSum(t, fs, "p0"); got != goldenLogSum {
			t.Errorf("batch=%d: log bytes changed: sha256 %s, want %s", batch, got, goldenLogSum)
		}
		for i, p := range ptrs {
			got, err := m.ReadUncached(p)
			if err != nil || !bytes.Equal(got, vals[i]) {
				t.Fatalf("batch=%d: value %d at %v: %v", batch, i, p, err)
			}
		}
		m.Close()
	}
}

// TestAppendBatchRotates: one batch far larger than MaxLogSize spreads
// over several logs — rotating at the frames value-at-a-time appends would
// have rotated at — and every pointer reads back.
func TestAppendBatchRotates(t *testing.T) {
	fs := vfs.NewMem()
	m := newMgr(t, fs, Options{MaxLogSize: 4 << 10})
	defer m.Close()
	var b Batch
	var vals [][]byte
	for i := 0; i < 100; i++ {
		v := bytes.Repeat([]byte{byte(i)}, 300+i)
		vals = append(vals, v)
		b.Add(v)
	}
	ptrs, err := m.AppendBatch(9, &b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ptrs) != len(vals) || b.Len() != len(vals) {
		t.Fatalf("%d pointers for %d values (batch holds %d)", len(ptrs), len(vals), b.Len())
	}
	logs := map[uint32]bool{}
	for i, p := range ptrs {
		logs[p.LogNum] = true
		if p.Partition != 9 {
			t.Fatalf("pointer %d stamped partition %d", i, p.Partition)
		}
		if i > 0 && p.LogNum == ptrs[i-1].LogNum &&
			p.Offset != ptrs[i-1].Offset+HeaderLen+ptrs[i-1].Length {
			t.Fatalf("pointer %d overlaps or leaves a gap after %v: %v", i, ptrs[i-1], p)
		}
		// Rotation rule: a frame starts in a log only below MaxLogSize.
		if int64(p.Offset) >= 4<<10 {
			t.Fatalf("pointer %d starts past MaxLogSize: %v", i, p)
		}
		got, err := m.ReadUncached(p)
		if err != nil || !bytes.Equal(got, vals[i]) {
			t.Fatalf("value %d at %v: %v", i, p, err)
		}
	}
	if len(logs) < 5 {
		t.Fatalf("batch stayed in %d logs; it should have rotated", len(logs))
	}
	for n := range logs {
		if _, err := m.VerifyLog(n); err != nil {
			t.Fatalf("log %d: %v", n, err)
		}
	}
}

// TestAppendBatchConcurrent: two partitions' merges batch into the shared
// active log at once. Batches interleave whole; no two pointers overlap
// and every one reads back its own value.
func TestAppendBatchConcurrent(t *testing.T) {
	fs := vfs.NewMem()
	m := newMgr(t, fs, Options{MaxLogSize: 32 << 10})
	defer m.Close()
	const writers, batches, perBatch = 2, 40, 16
	type placed struct {
		ptr record.ValuePtr
		val []byte
	}
	out := make([][]placed, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(w)))
			var b Batch
			var ptrs []record.ValuePtr
			for i := 0; i < batches; i++ {
				b.Reset()
				vals := make([][]byte, perBatch)
				for j := range vals {
					vals[j] = make([]byte, 100+rnd.Intn(900))
					rnd.Read(vals[j])
					b.Add(vals[j])
				}
				var err error
				ptrs, err = m.AppendBatch(uint32(w), &b, ptrs[:0])
				if err != nil {
					t.Error(err)
					return
				}
				for j, p := range ptrs {
					out[w] = append(out[w], placed{p, vals[j]})
				}
			}
		}(w)
	}
	wg.Wait()
	type span struct{ lo, hi uint32 }
	byLog := map[uint32][]span{}
	for w := range out {
		if len(out[w]) != batches*perBatch {
			t.Fatalf("writer %d placed %d values", w, len(out[w]))
		}
		for _, pl := range out[w] {
			if pl.ptr.Partition != uint32(w) {
				t.Fatalf("writer %d got a pointer stamped %d", w, pl.ptr.Partition)
			}
			got, err := m.ReadUncached(pl.ptr)
			if err != nil || !bytes.Equal(got, pl.val) {
				t.Fatalf("writer %d value at %v: %v", w, pl.ptr, err)
			}
			byLog[pl.ptr.LogNum] = append(byLog[pl.ptr.LogNum], span{pl.ptr.Offset, pl.ptr.Offset + HeaderLen + pl.ptr.Length})
		}
	}
	for n, spans := range byLog {
		for i, a := range spans {
			for _, b := range spans[i+1:] {
				if a.lo < b.hi && b.lo < a.hi {
					t.Fatalf("log %d: frames [%d,%d) and [%d,%d) overlap", n, a.lo, a.hi, b.lo, b.hi)
				}
			}
		}
		if _, err := m.VerifyLog(n); err != nil {
			t.Fatalf("log %d: %v", n, err)
		}
	}
}

// TestAppendBatchFailureIsBatchGranular: a rejected batch write leaves the
// log as it was (the next batch lands at the same offset); a torn one
// seals the log at its real size and the next batch opens a fresh log.
func TestAppendBatchFailureIsBatchGranular(t *testing.T) {
	for _, torn := range []int{0, 700} {
		inner := vfs.NewMem()
		ffs := vfs.NewFail(inner)
		m := newMgr(t, ffs, Options{})
		first, err := m.Append([]byte("committed"))
		if err != nil {
			t.Fatal(err)
		}
		var b Batch
		for i := 0; i < 8; i++ {
			b.Add(bytes.Repeat([]byte{byte(i)}, 200))
		}
		ffs.ArmPlan(vfs.FailPlan{Fail: 1, Kinds: vfs.OpWrite, TornBytes: torn})
		if _, err := m.AppendBatch(0, &b, nil); err == nil {
			t.Fatalf("torn=%d: armed batch succeeded", torn)
		}
		ptrs, err := m.AppendBatch(0, &b, nil)
		if err != nil {
			t.Fatalf("torn=%d: retry: %v", torn, err)
		}
		sameLog := ptrs[0].LogNum == first.LogNum
		if torn == 0 && (!sameLog || ptrs[0].Offset != HeaderLen+first.Length) {
			t.Fatalf("rejected batch moved the log: retry landed at %v", ptrs[0])
		}
		if torn > 0 && sameLog {
			t.Fatalf("retry appended over a torn tail: %v", ptrs[0])
		}
		for i, p := range ptrs {
			got, err := m.ReadUncached(p)
			if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 200)) {
				t.Fatalf("torn=%d: value %d at %v: %v", torn, i, p, err)
			}
		}
		if got, err := m.ReadUncached(first); err != nil || string(got) != "committed" {
			t.Fatalf("torn=%d: committed value: %q, %v", torn, got, err)
		}
		m.Close()
	}
}

// TestDedicatedLogStagesWrites: dedicated appends reach the file in
// dedicatedStage-sized writes plus the Finish tail, pointers are handed out
// before their bytes are written, and Rewrite moves frames log to log.
func TestDedicatedLogStagesWrites(t *testing.T) {
	fs := vfs.NewMem()
	m := newMgr(t, fs, Options{})
	defer m.Close()
	var src []record.ValuePtr
	var vals [][]byte
	for i := 0; i < 600; i++ {
		v := bytes.Repeat([]byte{byte(i)}, 1000+i%50)
		p, err := m.Append(v)
		if err != nil {
			t.Fatal(err)
		}
		src, vals = append(src, p), append(vals, v)
	}
	d, err := m.NewDedicatedLog(2)
	if err != nil {
		t.Fatal(err)
	}
	before := fs.Counters().WriteOps.Load()
	var dst []record.ValuePtr
	for i, p := range src {
		var np record.ValuePtr
		if i%2 == 0 {
			np, err = d.Rewrite(p)
		} else {
			np, err = d.Append(vals[i])
		}
		if err != nil {
			t.Fatal(err)
		}
		dst = append(dst, np)
	}
	if _, err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	writes := fs.Counters().WriteOps.Load() - before
	if want := d.Size()/dedicatedStage + 1; writes > want {
		t.Fatalf("%d bytes took %d writes, want at most %d", d.Size(), writes, want)
	}
	if m.SizeOf(d.Num()) != d.Size() {
		t.Fatalf("manager accounts %d bytes for a %d-byte log", m.SizeOf(d.Num()), d.Size())
	}
	for i, p := range dst {
		got, err := m.ReadUncached(p)
		if err != nil || !bytes.Equal(got, vals[i]) {
			t.Fatalf("value %d at %v: %v", i, p, err)
		}
	}
	// A pointer that does not match its frame is refused, and stages nothing.
	d2, _ := m.NewDedicatedLog(2)
	bad := src[3]
	bad.Length++
	if _, err := d2.Rewrite(bad); err == nil {
		t.Fatal("Rewrite accepted a bad pointer")
	}
	if nonEmpty, err := d2.Finish(); err != nil || nonEmpty {
		t.Fatalf("failed Rewrite left bytes staged: %v %v", nonEmpty, err)
	}
}

func BenchmarkAppendBatch64(b *testing.B) {
	m, err := Open(vfs.NewMem(), "p0", Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	value := bytes.Repeat([]byte("v"), 1024)
	var batch Batch
	var ptrs []record.ValuePtr
	b.ReportAllocs()
	b.SetBytes(int64(len(value)))
	b.ResetTimer()
	for i := 0; i < b.N; i += 64 {
		batch.Reset()
		for j := 0; j < 64; j++ {
			batch.Add(value)
		}
		if ptrs, err = m.AppendBatch(0, &batch, ptrs[:0]); err != nil {
			b.Fatal(err)
		}
	}
}
