// Package stripe is an event counter that concurrent adders do not contend
// on. A plain atomic counter bumped by every operation puts one cache line
// in every core's write path: two readers that share nothing else still
// trade that line back and forth. A Counter spreads its adds over cells a
// cache line apart and picks the cell from the adding goroutine's stack
// address. A goroutine thus keeps adding to one cell, whose line stays in
// the cache of the core it runs on, and two goroutines write the same line
// only when their stacks hash to the same cell. (A cell drawn at random per
// add spreads the adds as well, but every core then writes every line, so
// each add still fetches its line from another core.) Load sums the cells;
// no add is sampled or dropped, so once the adders are done Load is exact.
package stripe

import (
	"sync/atomic"
	"unsafe"
)

// cells is the number of counter cells (a power of two). Two goroutines
// share a cell, and so a line, with probability 1/cells.
const cells = 32

// cacheLine is the padding unit between cells.
const cacheLine = 64

// cell is one counter word, padded to a line of its own.
type cell struct {
	n atomic.Int64
	_ [cacheLine - 8]byte
}

// Counter is a striped int64 counter. The zero value is ready to use and it
// must not be copied. The leading pad keeps the first cell off the line of
// whatever precedes the Counter in its struct; the last cell's own pad does
// the same for what follows.
type Counter struct {
	_ [cacheLine - 8]byte
	c [cells]cell
}

// Add adds d to the counter. It writes one cell: the one the calling
// goroutine's stack hashes to.
func (c *Counter) Add(d int64) {
	var anchor byte
	c.c[cellOf(uintptr(unsafe.Pointer(&anchor)))].n.Add(d)
}

// cellOf maps a stack address to a cell: goroutine stacks are at least
// 4 KiB apart, so the address above the low 12 bits names the goroutine
// (until its stack is moved), and a Fibonacci hash of it spreads adjacent
// stacks over the cells.
func cellOf(sp uintptr) uint64 {
	return uint64(sp>>12) * 0x9e3779b97f4a7c15 >> (64 - 5)
}

// Load returns the sum of the cells.
func (c *Counter) Load() int64 {
	var sum int64
	for i := range c.c {
		sum += c.c[i].n.Load()
	}
	return sum
}
