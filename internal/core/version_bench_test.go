package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"unikv/internal/vfs"
)

// Benchmarks of the foreground paths beside a background worker and a
// second client — where the partition lock and per-put trigger arithmetic
// used to show. They use only what every version of the engine exports, so
// the same file measures the parent commit (see EXPERIMENTS.md, "perf
// ledger — partition version").

// benchLoaded returns a background-mode store (one worker) over n keys of
// 1 KiB values, compacted into the SortedStore and the value logs.
func benchLoaded(b *testing.B, n int, maxLogSize, memtableSize int64) *DB {
	b.Helper()
	fs := vfs.NewMem()
	load, err := Open("db", Options{FS: fs, MaxLogSize: maxLogSize, exp: Experiment{DisablePartitioning: true}, GCRatio: 1e9})
	if err != nil {
		b.Fatal(err)
	}
	value := bytes.Repeat([]byte("b"), 1024)
	for i := 0; i < n; i++ {
		if err := load.Put(key(i), value); err != nil {
			b.Fatal(err)
		}
	}
	if err := load.CompactAll(); err != nil {
		b.Fatal(err)
	}
	if err := load.Close(); err != nil {
		b.Fatal(err)
	}
	db, err := Open("db", Options{FS: fs, MaxLogSize: maxLogSize, exp: Experiment{DisablePartitioning: true}, GCRatio: 1e9,
		BackgroundWorkers: 1, MemtableSize: memtableSize})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

// BenchmarkPutBackground is one put in background mode into a partition
// that references the given number of value logs. A put must not cost more
// with more logs: nothing on its path depends on the partition's structure.
// (The memtable is sized so that no run fills it.)
func BenchmarkPutBackground(b *testing.B) {
	for _, logs := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("logs=%d", logs), func(b *testing.B) {
			const n = 4096 // 4 MiB of values
			db := benchLoaded(b, n, int64(n*1024/logs), 1<<30)
			if got := db.Metrics().ValueLogs; got < logs*3/4 || got > logs*3/2 {
				b.Fatalf("%d value logs, want about %d", got, logs)
			}
			k := []byte("put-00000000")
			v := make([]byte, 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				binary.BigEndian.PutUint64(k[4:], uint64(i))
				if err := db.Put(k, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var benchVal []byte

// benchGets runs random point reads from every GOMAXPROCS goroutine.
func benchGets(b *testing.B, db *DB, n int) {
	var seed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rnd := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			val, err := db.Get(key(rnd.Intn(n)))
			if err != nil {
				b.Error(err)
				return
			}
			benchVal = val
		}
	})
}

// BenchmarkGetParallel is a cold point read (sorted run + value log) under
// read-read contention only.
func BenchmarkGetParallel(b *testing.B) {
	const n = 20000
	benchGets(b, benchLoaded(b, n, 0, 0), n)
}

// beside runs work in a loop on its own goroutine until the returned stop
// is called, which reports how often it ran per benchmark iteration as
// unit: the two sides of these benchmarks share the CPUs, so a faster
// neighbour is part of the result.
func beside(b *testing.B, unit string, work func(i int) error) (stop func()) {
	var wg sync.WaitGroup
	var done atomic.Bool
	var count atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !done.Load(); i++ {
			if err := work(i); err != nil {
				b.Error(err)
				return
			}
			count.Add(1)
		}
	}()
	return func() {
		done.Store(true)
		wg.Wait()
		b.ReportMetric(float64(count.Load())/float64(b.N), unit)
	}
}

// BenchmarkGetWhileScanning is the same read beside a client that scans
// 100-key ranges back to back.
func BenchmarkGetWhileScanning(b *testing.B) {
	const n = 20000
	db := benchLoaded(b, n, 0, 0)
	stop := beside(b, "scans/op", func(i int) error {
		_, err := db.Scan(key(i*97%(n-100)), nil, 100)
		return err
	})
	defer stop()
	benchGets(b, db, n)
}

// BenchmarkScanWhileWriting is a 100-key scan beside a client that inserts
// new keys into the scanned range back to back, with the flushes and merges
// that brings.
func BenchmarkScanWhileWriting(b *testing.B) {
	const n = 20000
	db := benchLoaded(b, n, 0, 0)
	v := make([]byte, 128)
	stop := beside(b, "puts/op", func(i int) error {
		return db.Put([]byte(fmt.Sprintf("key-%06d-%d", i*31%n, i)), v)
	})
	defer stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kvs, err := db.Scan(key(i*97%(n-200)), nil, 100)
		if err != nil || len(kvs) != 100 {
			b.Fatalf("%d pairs, %v", len(kvs), err)
		}
		benchKVs = kvs
	}
}
