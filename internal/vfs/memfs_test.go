package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
)

// memExtentStarts lists the offsets at which the first n extents begin.
func memExtentStarts(n int) []int64 {
	starts := make([]int64, n)
	for i := 1; i < n; i++ {
		starts[i] = starts[i-1] + int64(memExtentLen(i-1))
	}
	return starts
}

func TestMemExtentGeometry(t *testing.T) {
	starts := memExtentStarts(memSmallExtents + 3)
	if starts[memSmallExtents] != memExtentSize {
		t.Fatalf("the small extents cover %d bytes, want %d", starts[memSmallExtents], memExtentSize)
	}
	for idx, start := range starts {
		for _, off := range []int64{start, start + 1, start + int64(memExtentLen(idx)) - 1} {
			if gotIdx, gotIn := memLocate(off); gotIdx != idx || int64(gotIn) != off-start {
				t.Fatalf("memLocate(%d) = (%d, %d), want (%d, %d)", off, gotIdx, gotIn, idx, off-start)
			}
		}
	}
}

// refFile is the model's file: a plain byte slice and its synced length.
type refFile struct {
	data   []byte
	synced int
}

// modelHandle pairs an open memFS handle with the model file it must mirror,
// however the name it was opened under has since been renamed, removed or
// lost in a crash.
type modelHandle struct {
	f        File
	ref      *refFile
	writable bool
}

// TestMemFSModel drives memFS with a seeded op sequence — writes of 0 to 3
// extents, reads at, across and past extent boundaries and EOF, Sync,
// SyncDir, Crash, Rename, Remove under open handles, ReadFile — and checks
// every observable result against a reference that stores each file as one
// []byte.
func TestMemFSModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runMemFSModel(t, seed, 500) })
	}
}

func runMemFSModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	fs := NewMem()
	if err := fs.MkdirAll("db"); err != nil {
		t.Fatal(err)
	}
	names := []string{"db/a", "db/b", "db/c", "db/d"}
	live := map[string]*refFile{}
	durable := map[string]*refFile{}
	var handles []*modelHandle
	starts := memExtentStarts(memSmallExtents + 8)

	writeSize := func() int {
		switch r := rng.Intn(20); {
		case r == 0:
			return 0
		case r < 14:
			return rng.Intn(2 * memFirstExtent)
		case r < 18:
			return rng.Intn(300 << 10)
		default:
			return rng.Intn(3*memExtentSize + 1)
		}
	}
	// readRange picks a range that starts within a few bytes of an extent
	// boundary or of EOF (either side), and is long enough to cross several
	// extents now and then.
	readRange := func(size int) (off int64, n int) {
		switch rng.Intn(3) {
		case 0:
			off = int64(rng.Intn(size + 10))
		case 1:
			off = int64(size) + int64(rng.Intn(7)) - 3
		default:
			off = starts[rng.Intn(len(starts))] + int64(rng.Intn(7)) - 3
		}
		if off < 0 {
			off = 0
		}
		if rng.Intn(4) == 0 {
			return off, rng.Intn(5 * memExtentSize / 2)
		}
		return off, rng.Intn(3 * memFirstExtent)
	}
	checkRead := func(step int, h *modelHandle) {
		off, n := readRange(len(h.ref.data))
		p := make([]byte, n)
		got, err := h.f.ReadAt(p, off)
		var want []byte
		if off < int64(len(h.ref.data)) {
			want = h.ref.data[off:min(int64(len(h.ref.data)), off+int64(n))]
		}
		wantErr := error(nil)
		if off >= int64(len(h.ref.data)) || len(want) < n {
			wantErr = io.EOF
		}
		if got != len(want) || err != wantErr || !bytes.Equal(p[:got], want) {
			t.Fatalf("step %d: ReadAt(len %d, off %d) of a %d-byte file = (%d, %v), want (%d, %v); bytes equal: %v",
				step, n, off, len(h.ref.data), got, err, len(want), wantErr, bytes.Equal(p[:got], want))
		}
		if size, err := h.f.Size(); err != nil || size != int64(len(h.ref.data)) {
			t.Fatalf("step %d: Size = (%d, %v), want %d", step, size, err, len(h.ref.data))
		}
	}

	checkFile := func(step int, name string) {
		ref, ok := live[name]
		data, err := fs.ReadFile(name)
		if ok != (err == nil) || (ok && !bytes.Equal(data, ref.data)) {
			t.Fatalf("step %d: ReadFile(%s) = (%d bytes, %v), model: present %v", step, name, len(data), err, ok)
		}
	}

	for step := 0; step < steps; step++ {
		name := names[rng.Intn(len(names))]
		switch op := rng.Intn(100); {
		case op < 8: // create (truncating whatever the name held)
			f, err := fs.Create(name)
			if err != nil {
				t.Fatal(err)
			}
			ref := &refFile{}
			live[name] = ref
			handles = append(handles, &modelHandle{f: f, ref: ref, writable: true})
		case op < 12: // open a second, read-only handle
			ref, ok := live[name]
			f, err := fs.Open(name)
			if ok != (err == nil) {
				t.Fatalf("step %d: Open(%s) err %v, model has it: %v", step, name, err, ok)
			}
			if ok {
				handles = append(handles, &modelHandle{f: f, ref: ref})
			}
		case op < 50 && len(handles) > 0: // write
			h := handles[rng.Intn(len(handles))]
			p := make([]byte, writeSize())
			rng.Read(p)
			n, err := h.f.Write(p)
			if !h.writable {
				if err == nil {
					t.Fatalf("step %d: write through a read-only handle succeeded", step)
				}
				continue
			}
			if n != len(p) || err != nil {
				t.Fatalf("step %d: Write(%d bytes) = (%d, %v)", step, len(p), n, err)
			}
			h.ref.data = append(h.ref.data, p...)
		case op < 75 && len(handles) > 0: // read
			checkRead(step, handles[rng.Intn(len(handles))])
		case op < 80 && len(handles) > 0: // sync
			h := handles[rng.Intn(len(handles))]
			if err := h.f.Sync(); err != nil {
				t.Fatal(err)
			}
			h.ref.synced = len(h.ref.data)
		case op < 84:
			if err := fs.SyncDir("db"); err != nil {
				t.Fatal(err)
			}
			durable = map[string]*refFile{}
			for n, ref := range live {
				durable[n] = ref
			}
		case op < 87: // rename, over an existing name or not
			to := names[rng.Intn(len(names))]
			if to == name {
				continue
			}
			ref, ok := live[name]
			if err := fs.Rename(name, to); ok != (err == nil) {
				t.Fatalf("step %d: Rename(%s, %s) err %v, model has the source: %v", step, name, to, err, ok)
			}
			if ok {
				delete(live, name)
				live[to] = ref
			}
		case op < 90: // remove; open handles keep reading (and writing) the file
			_, ok := live[name]
			if err := fs.Remove(name); ok != (err == nil) {
				t.Fatalf("step %d: Remove(%s) err %v, model has it: %v", step, name, err, ok)
			}
			delete(live, name)
		case op < 96: // whole-file read
			checkFile(step, name)
		default: // power loss; the handles opened before it stay on the old files
			fs.(Crasher).Crash()
			live = map[string]*refFile{}
			for n, ref := range durable {
				live[n] = &refFile{data: append([]byte(nil), ref.data[:ref.synced]...), synced: ref.synced}
			}
			durable = map[string]*refFile{}
			for n, ref := range live {
				durable[n] = ref
			}
		}
	}
	for _, h := range handles {
		checkRead(steps, h)
	}
	for _, name := range names {
		checkFile(steps, name)
	}
}

// TestMemFileClosed: a closed handle fails every call the way *os.File does,
// so a use-after-close in the engine fails in memory as it would on disk.
func TestMemFileClosed(t *testing.T) {
	fsCases(t, func(t *testing.T, fs FS, dir string) {
		f, err := fs.Create(dir + "/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("abc")); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("x")); !errors.Is(err, os.ErrClosed) {
			t.Errorf("Write after Close: %v", err)
		}
		if _, err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, os.ErrClosed) {
			t.Errorf("ReadAt after Close: %v", err)
		}
		if err := f.Sync(); !errors.Is(err, os.ErrClosed) {
			t.Errorf("Sync after Close: %v", err)
		}
		if _, err := f.Size(); !errors.Is(err, os.ErrClosed) {
			t.Errorf("Size after Close: %v", err)
		}
		// Another handle on the same file is unaffected.
		r, err := fs.Open(dir + "/f")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if size, err := r.Size(); err != nil || size != 3 {
			t.Errorf("Size through a second handle = (%d, %v)", size, err)
		}
	})
}

// TestFailFSTornWriteAtExtentBoundary: a torn write lands a prefix that ends
// mid-extent, or exactly where an extent ends; the file holds exactly that
// prefix and the next write continues from it.
func TestFailFSTornWriteAtExtentBoundary(t *testing.T) {
	for _, tc := range []struct {
		name        string
		before      int // bytes in the file before the torn write
		torn, write int
	}{
		{"ends on the first boundary", memFirstExtent - 96, 96, 1000},
		{"crosses the first boundary", memFirstExtent - 96, 100, 1000},
		{"ends mid-extent", 10, 50, 1000},
		{"ends on a 1 MiB boundary", 2*memExtentSize - 4096, 4096, 8192},
		{"crosses two boundaries", memExtentSize - 10, memExtentSize + 20, 2 * memExtentSize},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := NewMem()
			ffs := NewFail(mem)
			f, err := ffs.Create("f")
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(tc.before)))
			before, torn, after := make([]byte, tc.before), make([]byte, tc.write), make([]byte, 5000)
			rng.Read(before)
			rng.Read(torn)
			rng.Read(after)
			if _, err := f.Write(before); err != nil {
				t.Fatal(err)
			}
			ffs.ArmPlan(FailPlan{Fail: 1, Kinds: OpWrite, TornBytes: tc.torn})
			if n, err := f.Write(torn); n != tc.torn || !errors.Is(err, ErrInjected) {
				t.Fatalf("torn Write = (%d, %v), want (%d, ErrInjected)", n, err, tc.torn)
			}
			want := append(append([]byte(nil), before...), torn[:tc.torn]...)
			if size, _ := f.Size(); size != int64(len(want)) {
				t.Fatalf("size after the torn write = %d, want %d", size, len(want))
			}
			if _, err := f.Write(after); err != nil {
				t.Fatal(err)
			}
			want = append(want, after...)
			got, err := mem.ReadFile("f")
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("file differs from before + torn prefix + after (err %v, %d bytes, want %d)", err, len(got), len(want))
			}
		})
	}
}

// memPattern is the byte every test below expects at offset off.
func memPattern(off int64) byte { return byte(off) ^ byte(off>>8) ^ byte(off>>16) }

func fillPattern(p []byte, off int64) {
	for i := range p {
		p[i] = memPattern(off + int64(i))
	}
}

// TestMemFileConcurrentAppendRead runs lock-free readers beside an appender
// (meaningful under -race): a reader never sees a byte below the size it
// was told that differs from what was written, and never a size that
// shrinks.
func TestMemFileConcurrentAppendRead(t *testing.T) {
	const total = 6 * memExtentSize
	fs := NewMem()
	w, err := fs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		rf, err := fs.Open("f")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, 3*memExtentSize/2)
			var lastSize int64
			for finished := false; !finished; {
				select {
				case <-done:
					finished = true // one more pass over the complete file
				default:
				}
				size, err := rf.Size()
				if err != nil || size < lastSize {
					t.Errorf("Size = (%d, %v) after %d", size, err, lastSize)
					return
				}
				lastSize = size
				if size == 0 {
					runtime.Gosched()
					continue
				}
				off := rng.Int63n(size)
				p := buf[:1+rng.Intn(len(buf))]
				if rng.Intn(2) == 0 {
					p = p[:1+rng.Intn(2*memFirstExtent)]
				}
				n, err := rf.ReadAt(p, off)
				if err != nil && err != io.EOF {
					t.Errorf("ReadAt: %v", err)
					return
				}
				if int64(n) < min(int64(len(p)), size-off) {
					t.Errorf("ReadAt(len %d, off %d) returned %d bytes of a file at least %d long", len(p), off, n, size)
					return
				}
				for i := 0; i < n; i++ {
					if p[i] != memPattern(off+int64(i)) {
						t.Errorf("byte at %d is %#x, want %#x", off+int64(i), p[i], memPattern(off+int64(i)))
						return
					}
				}
			}
			if lastSize != total {
				t.Errorf("final size %d, want %d", lastSize, total)
			}
		}(int64(r))
	}
	rng := rand.New(rand.NewSource(99))
	chunk := make([]byte, 300<<10)
	for off := int64(0); off < total; {
		p := chunk[:1+rng.Intn(len(chunk))]
		if int64(len(p)) > total-off {
			p = p[:total-off]
		}
		fillPattern(p, off)
		if _, err := w.Write(p); err != nil {
			t.Fatal(err)
		}
		off += int64(len(p))
		if rng.Intn(8) == 0 {
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()
}

// TestMemFileAppendNeverRecopies is the timing-free guard on the cost model:
// appending 64 MiB in 4 KiB writes allocates the file's extents and little
// else — no byte already written is copied again, and there is one
// allocation per extent plus the table's few doublings.
func TestMemFileAppendNeverRecopies(t *testing.T) {
	const total = 64 << 20
	fs := NewMem()
	f, err := fs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 4<<10)
	fillPattern(p, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for written := 0; written < total; written += len(p) {
		if _, err := f.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	bytesAlloc, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("appending %d MiB allocated %.2f MiB in %d objects", total>>20, float64(bytesAlloc)/(1<<20), mallocs)
	if bytesAlloc > total*11/10 {
		t.Errorf("TotalAlloc rose by %d bytes, more than 1.1 x the %d written", bytesAlloc, total)
	}
	if mallocs > 128 {
		t.Errorf("Mallocs rose by %d, want <= 128", mallocs)
	}
	got := make([]byte, len(p))
	if _, err := f.ReadAt(got, total-int64(len(p))); err != nil || !bytes.Equal(got, p) {
		t.Errorf("last block differs from what was written (err %v)", err)
	}
}

// ---------------------------------------------------------------------------
// Benchmarks.

func benchSizeName(n int) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%dM", n>>20)
	}
	return fmt.Sprintf("%dK", n>>10)
}

// BenchmarkMemFileAppend appends fixed-size writes to one file, starting a
// new file every 64 MiB (about a value log's worth) so memory stays bounded.
func BenchmarkMemFileAppend(b *testing.B) {
	for _, size := range []int{4 << 10, 256 << 10, 4 << 20} {
		b.Run(benchSizeName(size), func(b *testing.B) {
			fs := NewMem()
			p := make([]byte, size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			var f File
			written := 0
			for i := 0; i < b.N; i++ {
				if f == nil || written >= 64<<20 {
					var err error
					if f, err = fs.Create("f"); err != nil {
						b.Fatal(err)
					}
					written = 0
				}
				if _, err := f.Write(p); err != nil {
					b.Fatal(err)
				}
				written += size
			}
		})
	}
}

// benchReadFile returns a handle on a 64 MiB file.
func benchReadFile(b *testing.B) (File, int64) {
	const size = 64 << 20
	fs := NewMem()
	f, err := fs.Create("f")
	if err != nil {
		b.Fatal(err)
	}
	p := make([]byte, 1<<20)
	for off := int64(0); off < size; off += int64(len(p)) {
		if _, err := f.Write(p); err != nil {
			b.Fatal(err)
		}
	}
	return f, size
}

// BenchmarkMemFileReadAt reads uniformly random ranges of one file.
func BenchmarkMemFileReadAt(b *testing.B) {
	for _, size := range []int{1 << 10, 4 << 10} {
		b.Run(benchSizeName(size), func(b *testing.B) {
			f, fileSize := benchReadFile(b)
			rng := rand.New(rand.NewSource(1))
			p := make([]byte, size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.ReadAt(p, rng.Int63n(fileSize-int64(size))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMemFileReadAtParallel is the cold-read shape: every client reads
// random 1 KiB ranges through the one handle a table or log reader holds.
func BenchmarkMemFileReadAtParallel(b *testing.B) {
	const size = 1 << 10
	f, fileSize := benchReadFile(b)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	var seed int64
	var mu sync.Mutex
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		seed++
		rng := rand.New(rand.NewSource(seed))
		mu.Unlock()
		p := make([]byte, size)
		for pb.Next() {
			if _, err := f.ReadAt(p, rng.Int63n(fileSize-size)); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
