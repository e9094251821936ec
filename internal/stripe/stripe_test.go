package stripe

import (
	"sync"
	"testing"
	"unsafe"
)

// TestCounterExact: concurrent adds are all counted, none twice.
func TestCounterExact(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	c.Add(-5)
	if got := c.Load(); got != 8*10000-5 {
		t.Fatalf("Load = %d, want %d", got, 8*10000-5)
	}
}

// TestCellsOnLinesOfTheirOwn pins the layout: each cell's word has at least
// a line's worth of padding around it inside the Counter, so no two cells,
// and no neighbour of the Counter, share a 64-byte line with one.
func TestCellsOnLinesOfTheirOwn(t *testing.T) {
	var c Counter
	first := unsafe.Offsetof(c.c)
	if first < cacheLine-8 {
		t.Fatalf("first cell at offset %d, want >= %d", first, cacheLine-8)
	}
	if size := unsafe.Sizeof(cell{}); size != cacheLine {
		t.Fatalf("cell is %d bytes, want %d", size, cacheLine)
	}
	if tail := unsafe.Sizeof(c) - first - (cells-1)*cacheLine - 8; tail < cacheLine-8 {
		t.Fatalf("last cell has %d bytes after it, want >= %d", tail, cacheLine-8)
	}
}

func BenchmarkCounterAddParallel(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}
