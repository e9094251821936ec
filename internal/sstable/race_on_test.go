//go:build race

package sstable

// raceEnabled: the race detector's instrumentation allocates where the plain
// build does not (it materialises the make in append(dst, make(...)...),
// which slices.Grow is), so allocation counts are asserted without it.
const raceEnabled = true
