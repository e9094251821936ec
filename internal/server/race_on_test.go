//go:build race

package server_test

// raceEnabled: the race detector's instrumentation allocates where the plain
// build does not, so allocation counts are asserted without it.
const raceEnabled = true
