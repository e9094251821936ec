// Package arena provides the bump allocator behind every "copy these bytes
// once into memory that lives and dies as a unit" site in the engine: the
// memtable's key/value slabs, a flushed table's view keys, a write batch's
// staged operations. One allocation serves many
// small copies; nothing is ever freed individually — dropping the owner
// drops every chunk.
package arena

const (
	defaultMinChunk = 4 << 10
	defaultMaxChunk = 256 << 10
)

// Bytes hands out byte slices cut from chunks that double in size from
// minChunk to maxChunk (powers of two), so a small owner stays small and a
// large one amortizes to one allocation per maxChunk bytes. The zero value is ready
// to use with 4 KiB..256 KiB chunks. Not safe for concurrent use.
type Bytes struct {
	free []byte // unused tail of the current chunk
	next int    // size of the next chunk
	max  int
}

// New returns an arena whose chunks grow from minChunk to maxChunk bytes.
func New(minChunk, maxChunk int) Bytes {
	return Bytes{next: minChunk, max: maxChunk}
}

// Alloc returns n zeroed bytes, cap-limited so appending to the result
// cannot reach a neighbour. A request larger than a quarter of the largest
// chunk gets its own allocation, so no chunk tail is abandoned for it; any
// smaller request that outgrows the current chunk opens one at least four
// times its size.
func (a *Bytes) Alloc(n int) []byte {
	if n > len(a.free) {
		if a.next == 0 {
			a.next, a.max = defaultMinChunk, defaultMaxChunk
		}
		if n > a.max/4 {
			return make([]byte, n)
		}
		size := a.next
		for size < 4*n {
			size *= 2
		}
		size = min(size, a.max)
		a.free = make([]byte, size)
		a.next = min(2*size, a.max)
	}
	out := a.free[:n:n]
	a.free = a.free[n:]
	return out
}

// Copy returns an arena-owned copy of b.
func (a *Bytes) Copy(b []byte) []byte {
	out := a.Alloc(len(b))
	copy(out, b)
	return out
}
