package bench

import (
	"fmt"
	"time"

	"unikv/internal/core"
	"unikv/internal/vfs"
	"unikv/internal/ycsb"
)

// openUniKV opens a UniKV store over a fresh memFS with an option tweak.
func openUniKV(p Params, tweak func(*core.Options)) (Store, vfs.FS) {
	s, fs, err := openFresh(KindUniKV, p, func(env *Env) { env.UniKVTweak = tweak })
	if err != nil {
		panic(err)
	}
	return s, fs
}

// Fig11 reproduces the technique ablation: UniKV with each of its four
// techniques disabled, over a load+read+scan+update workload. Expected
// shape: each ablation hurts its targeted metric (no hash index → reads;
// no KV separation → updates/load write-amp; no partitioning → everything
// at scale; no scan merge → scans).
func Fig11(p Params) []Table {
	p = p.WithDefaults()
	variants := []struct {
		name  string
		tweak func(*core.Options)
	}{
		{"unikv(full)", nil},
		{"-hash-index", func(o *core.Options) { core.ExperimentOf(o).DisableHashIndex = true }},
		{"-kv-separation", func(o *core.Options) { core.ExperimentOf(o).DisableKVSeparation = true }},
		{"-partitioning", func(o *core.Options) { core.ExperimentOf(o).DisablePartitioning = true }},
		{"-scan-merge", func(o *core.Options) { core.ExperimentOf(o).DisableScanMerge = true }},
	}
	t := Table{
		Title: "fig11: ablation of UniKV's techniques (KOps/s; scans in Kscans/s)",
		Note: fmt.Sprintf("%d records x %dB; read/update ops=%d; write-amp over the whole run",
			p.N, p.ValueSize, p.Ops),
		Header: []string{"variant", "load", "read", "scan", "update", "write-amp"},
	}
	for _, v := range variants {
		s, fs := openUniKV(p, v.tweak)
		dLoad, err := loadPhase(s, p.N, p.ValueSize, nil)
		if err != nil {
			panic(err)
		}
		dRead, err := readPhase(s, p.N, p.Ops, ycsb.Uniform, p.Seed, nil)
		if err != nil {
			panic(err)
		}
		scans := p.Ops / 10
		if scans < 1 {
			scans = 1
		}
		dScan, err := scanPhase(s, p.N, scans, 50, p.Seed, nil)
		if err != nil {
			panic(err)
		}
		dUpd, err := updatePhase(s, p.N, p.Ops, p.ValueSize, p.Seed, nil)
		if err != nil {
			panic(err)
		}
		userBytes := float64(p.N+p.Ops) * float64(p.ValueSize+20)
		wa := float64(fs.Counters().BytesWritten.Load()) / userBytes
		s.Close()
		t.Rows = append(t.Rows, []string{
			v.name, kops(p.N, dLoad), kops(p.Ops, dRead),
			kops(scans, dScan), kops(p.Ops, dUpd), ratio(wa),
		})
		p.logf("fig11 %s done", v.name)
	}
	return []Table{t}
}

// FigSelective evaluates selective KV separation (the paper's suggested
// differentiated management for mixed value sizes): a workload with 70 %
// small (64 B) and 30 % large (1 KiB) values under full separation, no
// separation, and a 256 B threshold. Expected shape: selective separation
// matches full separation's update throughput and write-amp while avoiding
// the pointer + log-read overhead for small values.
func FigSelective(p Params) []Table {
	p = p.WithDefaults()
	mixedValue := func(i int) []byte {
		if i%10 < 7 {
			return ycsb.Value(i, 64)
		}
		return ycsb.Value(i, 1024)
	}
	variants := []struct {
		name  string
		tweak func(*core.Options)
	}{
		{"full-separation", nil},
		{"no-separation", func(o *core.Options) { core.ExperimentOf(o).DisableKVSeparation = true }},
		{"selective(256B)", func(o *core.Options) { o.ValueThreshold = 256 }},
	}
	t := Table{
		Title:  "fig-selective: selective KV separation under mixed value sizes",
		Note:   fmt.Sprintf("%d records: 70%% 64B + 30%% 1KiB values; %d zipfian updates + reads", p.N, p.Ops),
		Header: []string{"variant", "load", "read", "update", "write-amp", "log-bytes"},
	}
	for _, v := range variants {
		s, fs := openUniKV(p, v.tweak)
		start := time.Now()
		for i := 0; i < p.N; i++ {
			if err := s.Put(ycsb.Key(i), mixedValue(i)); err != nil {
				panic(err)
			}
		}
		dLoad := time.Since(start)
		dRead, err := readPhase(s, p.N, p.Ops, ycsb.Zipfian, p.Seed, nil)
		if err != nil {
			panic(err)
		}
		c := ycsb.NewClient(ycsb.Workload{UpdateProp: 1, Dist: ycsb.Zipfian}, p.N, p.Seed)
		start = time.Now()
		for i := 0; i < p.Ops; i++ {
			op := c.Next()
			if err := s.Put(op.Key, mixedValue(i)); err != nil {
				panic(err)
			}
		}
		dUpd := time.Since(start)
		m := s.(*unikvStore).Metrics()
		userBytes := float64(p.N+p.Ops) * 400 // ~avg record
		wa := float64(fs.Counters().BytesWritten.Load()) / userBytes
		s.Close()
		t.Rows = append(t.Rows, []string{
			v.name, kops(p.N, dLoad), kops(p.Ops, dRead), kops(p.Ops, dUpd),
			ratio(wa), fmt.Sprintf("%d", m.ValueLogBytes),
		})
		p.logf("fig-selective %s done", v.name)
	}
	return []Table{t}
}

// TabMem reproduces the memory-overhead analysis: hash-index bytes per MB
// of UnsortedStore data, across value sizes. Expected shape: ≈1 % at 1 KiB
// values (paper: ~10 MB of index per GB), growing as values shrink.
func TabMem(p Params) []Table {
	p = p.WithDefaults()
	t := Table{
		Title:  "tab-mem: hash-index memory overhead vs UnsortedStore size",
		Note:   "index is sized at one 8B bucket per expected entry plus 8B overflow entries",
		Header: []string{"value-size", "unsorted-bytes", "index-bytes", "overhead"},
	}
	for _, vs := range []int{128, 256, 1024, 4096} {
		n := p.DatasetBytes() / int64(vs+20)
		s, _ := openUniKV(Params{N: int(n), ValueSize: vs}.WithDefaults(), func(o *core.Options) {
			// Keep everything in the UnsortedStore for a clean measurement.
			o.UnsortedLimit = 1 << 40
			o.PartitionSizeLimit = 1 << 40
			o.ScanMergeLimit = 1 << 30
			o.HashBuckets = int(n)
		})
		if _, err := loadPhase(s, int(n), vs, nil); err != nil {
			panic(err)
		}
		if err := s.(*unikvStore).DB().Flush(); err != nil {
			panic(err)
		}
		m := s.(*unikvStore).Metrics()
		s.Close()
		overhead := float64(m.HashIndexBytes) / float64(m.UnsortedBytes)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dB", vs),
			fmt.Sprintf("%d", m.UnsortedBytes),
			fmt.Sprintf("%d", m.HashIndexBytes),
			fmt.Sprintf("%.2f%%", 100*overhead),
		})
		p.logf("tab-mem v=%dB: %.2f%%", vs, 100*overhead)
	}
	return []Table{t}
}

// TabRecovery reproduces the crash-recovery measurement: reopen time (and
// bytes read) with and without hash-index checkpointing. Expected shape:
// checkpointing cuts recovery work substantially.
func TabRecovery(p Params) []Table {
	p = p.WithDefaults()
	t := Table{
		Title:  "tab-recovery: reopen cost after load",
		Header: []string{"config", "reopen-ms", "bytes-read"},
	}
	for _, cfg := range []struct {
		name      string
		ckptEvery int // Experiment.HashCheckpointEvery; negative never checkpoints
	}{{"with-hash-checkpoint", 2}, {"without-checkpoint", -1}} {
		fs := vfs.NewMem()
		opts := core.Options{
			FS:           fs,
			MemtableSize: clampMin(p.DatasetBytes()/64, 16<<10),
			// Keep data in the UnsortedStore: recovery must rebuild or
			// reload the hash index.
			UnsortedLimit:      1 << 40,
			PartitionSizeLimit: 1 << 40,
			ScanMergeLimit:     1 << 30,
			HashBuckets:        p.N,
		}
		core.ExperimentOf(&opts).HashCheckpointEvery = cfg.ckptEvery
		db, err := core.Open("db", opts)
		if err != nil {
			panic(err)
		}
		for i := 0; i < p.N; i++ {
			db.Put(ycsb.Key(i), ycsb.Value(i, p.ValueSize))
		}
		db.Flush()
		// Abandon without Close: reopen does the recovery work. The dead
		// process's directory lock dies with it.
		fs.(vfs.LockDropper).DropLocks()
		before := fs.Counters().Snapshot()
		start := time.Now()
		db2, err := core.Open("db", opts)
		if err != nil {
			panic(err)
		}
		elapsed := time.Since(start)
		readBytes := fs.Counters().Snapshot().Sub(before).BytesRead
		// Sanity: data present.
		if _, err := db2.Get(ycsb.Key(p.N / 2)); err != nil {
			panic(err)
		}
		db2.Close()
		t.Rows = append(t.Rows, []string{
			cfg.name,
			fmt.Sprintf("%.1f", float64(elapsed.Microseconds())/1000),
			fmt.Sprintf("%d", readBytes),
		})
		p.logf("tab-recovery %s: %v", cfg.name, elapsed)
	}
	return []Table{t}
}

// FigGC reproduces the GC-overhead measurement: an update-heavy workload
// with GC enabled, reporting throughput, bytes the GC rewrote, and the
// final space footprint. Expected shape: GC bounds log space at modest
// rewrite cost, and UniKV's flexible partition-granular GC touches only
// live data.
func FigGC(p Params) []Table {
	p = p.WithDefaults()
	t := Table{
		Title:  "fig-gc: value-log GC under zipfian overwrites",
		Note:   fmt.Sprintf("%d records, %d overwrite rounds", p.N/4, 8),
		Header: []string{"gc-ratio", "update-KOps/s", "gc-runs", "gc-bytes-rewritten", "final-log-bytes"},
	}
	for _, gcRatio := range []float64{0.15, 0.3, 0.6} {
		s, _ := openUniKV(Params{N: p.N / 4, ValueSize: p.ValueSize}.WithDefaults(),
			func(o *core.Options) { o.GCRatio = gcRatio })
		n := p.N / 4
		if _, err := loadPhase(s, n, p.ValueSize, nil); err != nil {
			panic(err)
		}
		ops := 8 * n
		d, err := updatePhase(s, n, ops, p.ValueSize, p.Seed, nil)
		if err != nil {
			panic(err)
		}
		s.Compact()
		m := s.(*unikvStore).Metrics()
		s.Close()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", gcRatio),
			kops(ops, d),
			fmt.Sprintf("%d", m.GCs),
			fmt.Sprintf("%d", m.GCBytesRewritten),
			fmt.Sprintf("%d", m.ValueLogBytes),
		})
		p.logf("fig-gc ratio=%.2f: %d GCs", gcRatio, m.GCs)
	}
	return []Table{t}
}

// FigParamUnsorted reproduces the UnsortedLimit sensitivity sweep.
// Expected shape: larger limits help writes (rarer merges) and hot reads
// (more data behind the hash index) at higher memory cost; scans prefer
// smaller unsorted tiers.
func FigParamUnsorted(p Params) []Table {
	p = p.WithDefaults()
	t := Table{
		Title:  "fig-param-unsorted: sensitivity to UnsortedLimit",
		Header: []string{"unsorted-limit", "load", "read", "scan", "index-bytes"},
	}
	base := p.DatasetBytes()
	for _, frac := range []int64{32, 16, 8, 4} {
		limit := base / frac
		s, _ := openUniKV(p, func(o *core.Options) {
			o.UnsortedLimit = limit
			o.PartitionSizeLimit = base / 2
		})
		dLoad, err := loadPhase(s, p.N, p.ValueSize, nil)
		if err != nil {
			panic(err)
		}
		dRead, err := readPhase(s, p.N, p.Ops, ycsb.Zipfian, p.Seed, nil)
		if err != nil {
			panic(err)
		}
		scans := p.Ops / 10
		if scans < 1 {
			scans = 1
		}
		dScan, err := scanPhase(s, p.N, scans, 50, p.Seed, nil)
		if err != nil {
			panic(err)
		}
		m := s.(*unikvStore).Metrics()
		s.Close()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dKiB", limit/1024),
			kops(p.N, dLoad), kops(p.Ops, dRead), kops(scans, dScan),
			fmt.Sprintf("%d", m.HashIndexBytes),
		})
		p.logf("fig-param-unsorted limit=%d done", limit)
	}
	return []Table{t}
}

// FigParamPartition reproduces the PartitionSizeLimit sweep. Expected
// shape: smaller limits mean more splits (more split I/O during load) but
// flatter per-partition work; very large limits degenerate toward a single
// ever-growing partition.
func FigParamPartition(p Params) []Table {
	p = p.WithDefaults()
	t := Table{
		Title:  "fig-param-partition: sensitivity to PartitionSizeLimit",
		Header: []string{"partition-limit", "load", "read", "partitions", "splits"},
	}
	base := p.DatasetBytes()
	for _, frac := range []int64{8, 4, 2, 1} {
		limit := base / frac
		s, _ := openUniKV(p, func(o *core.Options) { o.PartitionSizeLimit = limit })
		dLoad, err := loadPhase(s, p.N, p.ValueSize, nil)
		if err != nil {
			panic(err)
		}
		s.Compact()
		dRead, err := readPhase(s, p.N, p.Ops, ycsb.Uniform, p.Seed, nil)
		if err != nil {
			panic(err)
		}
		m := s.(*unikvStore).Metrics()
		s.Close()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dKiB", limit/1024),
			kops(p.N, dLoad), kops(p.Ops, dRead),
			fmt.Sprintf("%d", m.Partitions),
			fmt.Sprintf("%d", m.Splits),
		})
		p.logf("fig-param-partition limit=%d: %d partitions", limit, m.Partitions)
	}
	return []Table{t}
}

// FigScanOpt reproduces the scan-optimization breakdown: scans with the
// size-based merge, parallel fetch, and prefetch each toggled off.
// Expected shape: each optimization contributes; disabling the size-based
// merge hurts most when the unsorted tier holds many overlapping tables.
func FigScanOpt(p Params) []Table {
	p = p.WithDefaults()
	variants := []struct {
		name  string
		tweak func(*core.Options)
	}{
		{"all-optimizations", nil},
		{"-size-based-merge", func(o *core.Options) { core.ExperimentOf(o).DisableScanMerge = true }},
		{"-parallel-fetch", func(o *core.Options) { core.ExperimentOf(o).DisableScanParallel = true }},
		{"-prefetch", func(o *core.Options) { core.ExperimentOf(o).DisableScanPrefetch = true }},
		{"none", func(o *core.Options) {
			e := core.ExperimentOf(o)
			e.DisableScanMerge, e.DisableScanParallel, e.DisableScanPrefetch = true, true, true
		}},
	}
	t := Table{
		Title:  "fig-scanopt: scan optimization breakdown (Kscans/s)",
		Note:   fmt.Sprintf("%d records; 100-entry scans; unsorted tier deliberately left unmerged", p.N),
		Header: []string{"variant", "short-scan(10)", "long-scan(100)"},
	}
	for _, v := range variants {
		s, _ := openUniKV(p, v.tweak)
		if _, err := loadPhase(s, p.N, p.ValueSize, nil); err != nil {
			panic(err)
		}
		// Overwrite a slice of keys so the unsorted tier holds overlapping
		// tables when the size-based merge is off.
		for i := 0; i < p.N/4; i++ {
			s.Put(ycsb.Key(i*4), ycsb.Value(i, p.ValueSize))
		}
		scans := p.Ops / 10
		if scans < 1 {
			scans = 1
		}
		dShort, err := scanPhase(s, p.N, scans, 10, p.Seed, nil)
		if err != nil {
			panic(err)
		}
		dLong, err := scanPhase(s, p.N, scans, 100, p.Seed, nil)
		if err != nil {
			panic(err)
		}
		s.Close()
		t.Rows = append(t.Rows, []string{v.name, kops(scans, dShort), kops(scans, dLong)})
		p.logf("fig-scanopt %s done", v.name)
	}
	return []Table{t}
}
