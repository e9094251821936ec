// Benchmarks: one testing.B target per table/figure of the paper's
// evaluation (see DESIGN.md's experiment index). Each sub-benchmark drives
// the measured operation of that experiment through the engine-neutral
// Store interface over an in-memory file system; derived quantities
// (amplification, access shares, index overhead) surface as custom metrics.
//
// For the full printed tables/series, run:
//
//	go run ./cmd/unikv-bench -exp all
package unikv

import (
	"fmt"
	"testing"

	"unikv/internal/bench"
	"unikv/internal/core"
	"unikv/internal/lsm"
	"unikv/internal/vfs"
	"unikv/internal/ycsb"
)

const (
	benchN     = 20000
	benchValue = 256
)

// openBench opens a fresh store of the given kind sized for n records.
func openBench(b *testing.B, kind string, n int, tweak func(*core.Options)) (bench.Store, vfs.FS) {
	b.Helper()
	fs := vfs.NewMem()
	env := bench.Env{FS: fs, DatasetBytes: int64(n) * int64(benchValue+20), UniKVTweak: tweak}
	s, err := bench.OpenStore(kind, env)
	if err != nil {
		b.Fatal(err)
	}
	return s, fs
}

// loadBench inserts n records.
func loadBench(b *testing.B, s bench.Store, n, valueSize int) {
	b.Helper()
	for i := 0; i < n; i++ {
		if err := s.Put(ycsb.Key(i), ycsb.Value(i, valueSize)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1HashVsLSM (paper Fig. 1): random reads on a hash-indexed
// log store vs a leveled LSM at two dataset sizes. The hash store's
// ns/op must degrade with N while the LSM's stays near-flat.
func BenchmarkFig1HashVsLSM(b *testing.B) {
	for _, kind := range []string{bench.KindHashStore, bench.KindLevelDB} {
		for _, n := range []int{benchN / 8, benchN} {
			b.Run(fmt.Sprintf("%s/n=%d", kind, n), func(b *testing.B) {
				s, _ := openBench(b, kind, n, nil)
				defer s.Close()
				loadBench(b, s, n, benchValue)
				c := ycsb.NewClient(ycsb.Workload{ReadProp: 1, Dist: ycsb.Uniform}, n, 1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Get(c.Next().Key)
				}
			})
		}
	}
}

// BenchmarkFig2AccessSkew (paper Fig. 2): zipfian reads on a leveled LSM;
// the custom metrics report the last level's share of tables vs accesses.
func BenchmarkFig2AccessSkew(b *testing.B) {
	s, _ := openBench(b, bench.KindLevelDB, benchN, nil)
	defer s.Close()
	loadBench(b, s, benchN, benchValue)
	// Latest distribution: real workloads skew toward recently written
	// keys, which is what produces the paper's per-level access skew.
	c := ycsb.NewClient(ycsb.Workload{ReadProp: 1, Dist: ycsb.Latest}, benchN, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(c.Next().Key)
	}
	b.StopTimer()
	stats := s.(interface{ DB() *lsm.DB }).DB().Stats()
	var tables, lastTables int
	var accesses, lastAccesses int64
	last := 0
	for _, ls := range stats.Levels {
		tables += ls.Tables
		accesses += ls.Accesses
		if ls.Tables > 0 {
			last = ls.Level
		}
	}
	lastTables = stats.Levels[last].Tables
	lastAccesses = stats.Levels[last].Accesses
	if tables > 0 && accesses > 0 {
		b.ReportMetric(100*float64(lastTables)/float64(tables), "lastlvl-tables-%")
		b.ReportMetric(100*float64(lastAccesses)/float64(accesses), "lastlvl-accesses-%")
	}
}

// BenchmarkTabIOAmplification (paper's I/O-cost analysis): loads per store
// and reports measured write amplification as a metric.
func BenchmarkTabIOAmplification(b *testing.B) {
	for _, kind := range bench.AllKinds() {
		b.Run(kind, func(b *testing.B) {
			s, fs := openBench(b, kind, benchN, nil)
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Put(ycsb.Key(i), ycsb.Value(i, benchValue)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			user := float64(b.N) * float64(benchValue+20)
			b.ReportMetric(float64(fs.Counters().BytesWritten.Load())/user, "write-amp")
		})
	}
}

// BenchmarkFig7Load (paper Fig. 7a): random-order load throughput.
func BenchmarkFig7Load(b *testing.B) {
	for _, kind := range bench.AllKinds() {
		b.Run(kind, func(b *testing.B) {
			s, _ := openBench(b, kind, benchN, nil)
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Put(ycsb.Key(i), ycsb.Value(i, benchValue)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7Read (paper Fig. 7b): uniform point reads on the post-load
// state.
func BenchmarkFig7Read(b *testing.B) {
	for _, kind := range bench.AllKinds() {
		b.Run(kind, func(b *testing.B) {
			s, _ := openBench(b, kind, benchN, nil)
			defer s.Close()
			loadBench(b, s, benchN, benchValue)
			c := ycsb.NewClient(ycsb.Workload{ReadProp: 1, Dist: ycsb.Uniform}, benchN, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Get(c.Next().Key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7Scan (paper Fig. 7c): 50-entry scans from random starts.
func BenchmarkFig7Scan(b *testing.B) {
	for _, kind := range bench.AllKinds() {
		b.Run(kind, func(b *testing.B) {
			s, _ := openBench(b, kind, benchN, nil)
			defer s.Close()
			loadBench(b, s, benchN, benchValue)
			c := ycsb.NewClient(ycsb.Workload{ReadProp: 1, Dist: ycsb.Uniform}, benchN, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Scan(c.Next().Key, 50); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7Update (paper Fig. 7d): zipfian overwrites including
// compaction/merge/GC work.
func BenchmarkFig7Update(b *testing.B) {
	for _, kind := range bench.AllKinds() {
		b.Run(kind, func(b *testing.B) {
			s, _ := openBench(b, kind, benchN, nil)
			defer s.Close()
			loadBench(b, s, benchN, benchValue)
			c := ycsb.NewClient(ycsb.Workload{UpdateProp: 1, Dist: ycsb.Zipfian}, benchN, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Put(c.Next().Key, ycsb.Value(i, benchValue)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8YCSB (paper Fig. 8): the six YCSB core workloads.
func BenchmarkFig8YCSB(b *testing.B) {
	for _, w := range ycsb.CoreWorkloads() {
		for _, kind := range bench.AllKinds() {
			b.Run(fmt.Sprintf("%s/%s", w.Name, kind), func(b *testing.B) {
				s, _ := openBench(b, kind, benchN, nil)
				defer s.Close()
				loadBench(b, s, benchN, benchValue)
				c := ycsb.NewClient(w, benchN, 1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op := c.Next()
					switch op.Type {
					case ycsb.OpRead:
						s.Get(op.Key)
					case ycsb.OpUpdate, ycsb.OpInsert:
						if err := s.Put(op.Key, ycsb.Value(i, benchValue)); err != nil {
							b.Fatal(err)
						}
					case ycsb.OpScan:
						if _, err := s.Scan(op.Key, op.ScanLen); err != nil && err != bench.ErrScanUnsupported {
							b.Fatal(err)
						}
					case ycsb.OpReadModifyWrite:
						s.Get(op.Key)
						if err := s.Put(op.Key, ycsb.Value(i, benchValue)); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// BenchmarkFig8BackgroundA: YCSB workload A (50/50 zipfian read/update) on
// UniKV with maintenance inline vs offloaded to the background scheduler.
// The background rows should show lower ns/op: flush/merge/GC/split leave
// the foreground path, so the zipfian update stream no longer pays for them
// synchronously.
func BenchmarkFig8BackgroundA(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		workers int
	}{{"inline", 0}, {"background", 4}} {
		b.Run(cfg.name, func(b *testing.B) {
			s, _ := openBench(b, bench.KindUniKV, benchN, func(o *core.Options) {
				o.BackgroundWorkers = cfg.workers
			})
			defer s.Close()
			loadBench(b, s, benchN, benchValue)
			c := ycsb.NewClient(ycsb.WorkloadA, benchN, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := c.Next()
				switch op.Type {
				case ycsb.OpRead:
					s.Get(op.Key)
				case ycsb.OpUpdate:
					if err := s.Put(op.Key, ycsb.Value(i, benchValue)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkFig9Scalability (paper Fig. 9): point reads at growing dataset
// sizes; compare ns/op growth across engines.
func BenchmarkFig9Scalability(b *testing.B) {
	for _, n := range []int{benchN / 4, benchN, benchN * 4} {
		for _, kind := range bench.AllKinds() {
			b.Run(fmt.Sprintf("n=%d/%s", n, kind), func(b *testing.B) {
				s, _ := openBench(b, kind, n, nil)
				defer s.Close()
				loadBench(b, s, n, benchValue)
				c := ycsb.NewClient(ycsb.Workload{ReadProp: 1, Dist: ycsb.Uniform}, n, 1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Get(c.Next().Key)
				}
			})
		}
	}
}

// BenchmarkFig10ValueSize (paper Fig. 10): load throughput across value
// sizes (bytes/op scales; compare MB/s across engines).
func BenchmarkFig10ValueSize(b *testing.B) {
	for _, vs := range []int{256, 1024, 4096} {
		for _, kind := range bench.AllKinds() {
			b.Run(fmt.Sprintf("v=%d/%s", vs, kind), func(b *testing.B) {
				n := benchN * benchValue / vs
				s, _ := openBench(b, kind, n, nil)
				defer s.Close()
				b.SetBytes(int64(vs))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := s.Put(ycsb.Key(i), ycsb.Value(i, vs)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig11Ablation (paper Fig. 11 / technique analysis): UniKV's
// read and update paths with each technique disabled.
func BenchmarkFig11Ablation(b *testing.B) {
	variants := []struct {
		name  string
		tweak func(*core.Options)
	}{
		{"full", nil},
		{"no-hash-index", func(o *core.Options) { o.DisableHashIndex = true }},
		{"no-kv-separation", func(o *core.Options) { o.DisableKVSeparation = true }},
		{"no-partitioning", func(o *core.Options) { o.DisablePartitioning = true }},
		{"no-scan-merge", func(o *core.Options) { o.DisableScanMerge = true }},
	}
	for _, v := range variants {
		b.Run("read/"+v.name, func(b *testing.B) {
			s, _ := openBench(b, bench.KindUniKV, benchN, v.tweak)
			defer s.Close()
			loadBench(b, s, benchN, benchValue)
			c := ycsb.NewClient(ycsb.Workload{ReadProp: 1, Dist: ycsb.Zipfian}, benchN, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Get(c.Next().Key)
			}
		})
		b.Run("update/"+v.name, func(b *testing.B) {
			s, _ := openBench(b, bench.KindUniKV, benchN, v.tweak)
			defer s.Close()
			loadBench(b, s, benchN, benchValue)
			c := ycsb.NewClient(ycsb.Workload{UpdateProp: 1, Dist: ycsb.Zipfian}, benchN, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Put(c.Next().Key, ycsb.Value(i, benchValue)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTabMemOverhead (paper's memory analysis): loads the UnsortedStore
// and reports hash-index bytes per KV entry and per data byte.
func BenchmarkTabMemOverhead(b *testing.B) {
	s, _ := openBench(b, bench.KindUniKV, benchN, func(o *core.Options) {
		o.UnsortedLimit = 1 << 40
		o.PartitionSizeLimit = 1 << 40
		o.ScanMergeLimit = 1 << 30
		o.HashBuckets = benchN
	})
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(ycsb.Key(i%benchN), ycsb.Value(i, benchValue)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	type metricser interface{ Metrics() core.StatsSnapshot }
	s.(interface{ DB() *core.DB }).DB().Flush()
	m := s.(metricser).Metrics()
	if m.UnsortedBytes > 0 {
		b.ReportMetric(100*float64(m.HashIndexBytes)/float64(m.UnsortedBytes), "index-overhead-%")
	}
}

// BenchmarkTabRecovery (paper's recovery analysis): full reopen cycles with
// and without hash-index checkpoints.
func BenchmarkTabRecovery(b *testing.B) {
	for _, cfg := range []struct {
		name      string
		ckptEvery int // HashCheckpointEvery; negative never checkpoints
	}{{"with-checkpoint", 2}, {"without-checkpoint", -1}} {
		b.Run(cfg.name, func(b *testing.B) {
			fs := vfs.NewMem()
			opts := core.Options{
				FS:                  fs,
				MemtableSize:        64 << 10,
				UnsortedLimit:       1 << 40,
				PartitionSizeLimit:  1 << 40,
				ScanMergeLimit:      1 << 30,
				HashCheckpointEvery: cfg.ckptEvery,
				HashBuckets:         benchN,
			}
			db, err := core.Open("db", opts)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < benchN; i++ {
				db.Put(ycsb.Key(i), ycsb.Value(i, benchValue))
			}
			db.Flush()
			// Release the directory lock so each iteration can reopen; the
			// recovery cost measured here — hash-index rebuild vs checkpoint
			// load — is the same after a clean close (the WAL is already
			// empty after Flush).
			if err := db.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db2, err := core.Open("db", opts)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				db2.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkFigGC (GC overhead): zipfian overwrites with GC enabled vs
// KV separation disabled (no GC at all), metrics report GC bytes moved.
func BenchmarkFigGC(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		tweak func(*core.Options)
	}{
		{"gc-0.15", func(o *core.Options) { o.GCRatio = 0.15; o.DisablePartitioning = true }},
		{"gc-0.30", func(o *core.Options) { o.GCRatio = 0.30; o.DisablePartitioning = true }},
		{"gc-0.60", func(o *core.Options) { o.GCRatio = 0.60; o.DisablePartitioning = true }},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			n := benchN / 4
			s, _ := openBench(b, bench.KindUniKV, n, cfg.tweak)
			defer s.Close()
			loadBench(b, s, n, benchValue)
			c := ycsb.NewClient(ycsb.Workload{UpdateProp: 1, Dist: ycsb.Zipfian}, n, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Put(c.Next().Key, ycsb.Value(i, benchValue)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			m := s.(interface{ Metrics() core.StatsSnapshot }).Metrics()
			b.ReportMetric(float64(m.GCBytesRewritten)/float64(b.N), "gc-bytes/op")
		})
	}
}

// BenchmarkFigParamUnsorted (UnsortedLimit sensitivity): zipfian reads
// with the hot tier capped at different sizes.
func BenchmarkFigParamUnsorted(b *testing.B) {
	base := int64(benchN) * int64(benchValue+20)
	for _, frac := range []int64{32, 16, 8, 4} {
		limit := base / frac
		b.Run(fmt.Sprintf("limit=1_%d", frac), func(b *testing.B) {
			s, _ := openBench(b, bench.KindUniKV, benchN, func(o *core.Options) {
				o.UnsortedLimit = limit
				o.PartitionSizeLimit = base / 2
			})
			defer s.Close()
			loadBench(b, s, benchN, benchValue)
			c := ycsb.NewClient(ycsb.Workload{ReadProp: 1, Dist: ycsb.Zipfian}, benchN, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Get(c.Next().Key)
			}
		})
	}
}

// BenchmarkFigParamPartition (PartitionSizeLimit sensitivity): loads with
// different split thresholds; metrics report the final partition count.
func BenchmarkFigParamPartition(b *testing.B) {
	base := int64(benchN) * int64(benchValue+20)
	for _, frac := range []int64{8, 4, 2, 1} {
		limit := base / frac
		b.Run(fmt.Sprintf("limit=1_%d", frac), func(b *testing.B) {
			s, _ := openBench(b, bench.KindUniKV, benchN, func(o *core.Options) {
				o.PartitionSizeLimit = limit
			})
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Put(ycsb.Key(i), ycsb.Value(i, benchValue)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			m := s.(interface{ Metrics() core.StatsSnapshot }).Metrics()
			b.ReportMetric(float64(m.Partitions), "partitions")
		})
	}
}

// BenchmarkFigScanOpt (scan optimization breakdown): 100-entry scans with
// the optimizations toggled.
func BenchmarkFigScanOpt(b *testing.B) {
	variants := []struct {
		name  string
		tweak func(*core.Options)
	}{
		{"all", nil},
		{"no-size-merge", func(o *core.Options) { o.DisableScanMerge = true }},
		{"no-parallel", func(o *core.Options) { o.DisableScanParallel = true }},
		{"no-prefetch", func(o *core.Options) { o.DisableScanPrefetch = true }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			s, _ := openBench(b, bench.KindUniKV, benchN, v.tweak)
			defer s.Close()
			loadBench(b, s, benchN, benchValue)
			// Overwrite a stripe so the unsorted tier holds overlapping
			// tables when the size-based merge is off.
			for i := 0; i < benchN/4; i++ {
				s.Put(ycsb.Key(i*4), ycsb.Value(i, benchValue))
			}
			c := ycsb.NewClient(ycsb.Workload{ReadProp: 1, Dist: ycsb.Uniform}, benchN, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Scan(c.Next().Key, 100); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7ReadParallel runs the fig7b read comparison with parallel
// clients (the paper's clients are multi-threaded; UniKV's per-partition
// RWMutex admits concurrent readers).
func BenchmarkFig7ReadParallel(b *testing.B) {
	for _, kind := range bench.AllKinds() {
		b.Run(kind, func(b *testing.B) {
			s, _ := openBench(b, kind, benchN, nil)
			defer s.Close()
			loadBench(b, s, benchN, benchValue)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					s.Get(ycsb.Key((i * 7919) % benchN))
					i++
				}
			})
		})
	}
}
