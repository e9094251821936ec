package arena

import (
	"bytes"
	"fmt"
	"testing"
)

func TestCopiesAreStableAndSeparate(t *testing.T) {
	for _, a := range []*Bytes{{}, ptr(New(64, 1024))} {
		var got [][]byte
		var want [][]byte
		for i := 0; i < 2000; i++ {
			src := bytes.Repeat([]byte{byte(i)}, i%300)
			got = append(got, a.Copy(src))
			want = append(want, append([]byte(nil), src...))
			for j := range src {
				src[j] = 0xff // the arena kept its own bytes
			}
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("copy %d changed", i)
			}
			if cap(got[i]) != len(got[i]) {
				t.Fatalf("copy %d has spare capacity %d: an append would reach its neighbour", i, cap(got[i])-len(got[i]))
			}
		}
	}
}

func ptr(b Bytes) *Bytes { return &b }

func TestChunkPolicy(t *testing.T) {
	a := New(64, 1024)
	// Small requests share chunks: far fewer allocations than requests.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			a.Alloc(16)
		}
	})
	if allocs > 20 {
		t.Fatalf("1000 small requests took %v allocations", allocs)
	}
	// A request that does not fit the current chunk and is over a quarter
	// of the largest one stands alone and leaves the chunk's tail in place.
	a.Alloc(16)
	tail := len(a.free)
	if big := a.Alloc(tail + 1); len(big) != tail+1 || len(a.free) != tail {
		t.Fatalf("large request disturbed the chunk: tail %d -> %d", tail, len(a.free))
	}
	// A request that outgrows the starting chunk size still gets a chunk.
	b := New(64, 1<<20)
	b.Alloc(1000)
	if len(b.free) < 3000 {
		t.Fatalf("chunk opened for a 1000-byte request has only %d bytes left", len(b.free))
	}
	if z := b.Alloc(0); len(z) != 0 {
		t.Fatal("zero-length request")
	}
}

// BenchmarkAlloc and BenchmarkCopy cut the memtable's two shapes — 24-byte
// keys and 1 KiB values — from an arena sized like the memtable's value
// slabs, replaced every 4096 requests the way a flush replaces a memtable.
func BenchmarkAlloc(b *testing.B) {
	benchCuts(b, func(a *Bytes, src []byte) []byte { return a.Alloc(len(src)) })
}

func BenchmarkCopy(b *testing.B) { benchCuts(b, (*Bytes).Copy) }

func benchCuts(b *testing.B, cut func(*Bytes, []byte) []byte) {
	for _, n := range []int{24, 1024} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			src := bytes.Repeat([]byte{0x5a}, n)
			b.ReportAllocs()
			b.SetBytes(int64(n))
			var a Bytes
			for i := 0; i < b.N; i++ {
				if i%4096 == 0 {
					a = New(4<<10, 64<<10)
				}
				benchSink = cut(&a, src)
			}
		})
	}
}

var benchSink []byte
