package bench

import (
	"fmt"

	"unikv/internal/ycsb"
)

// Fig1 reproduces the motivation experiment: a pure hash-indexed store
// (SkimpyStash-class) vs a leveled LSM (LevelDB-class) as the dataset
// grows. Expected shape: the hash store wins at small N and degrades below
// the LSM as its bucket chains lengthen.
func Fig1(p Params) []Table {
	p = p.WithDefaults()
	sizes := []int{p.N / 8, p.N / 4, p.N / 2, p.N}
	load := Table{
		Title:  "fig1a: load throughput vs dataset size (KOps/s)",
		Note:   fmt.Sprintf("value=%dB; hash store uses a fixed 4096-bucket directory", p.ValueSize),
		Header: []string{"records", "hashstore", "leveldb"},
	}
	read := Table{
		Title:  "fig1b: random-read throughput vs dataset size (KOps/s)",
		Header: []string{"records", "hashstore", "leveldb"},
	}
	for _, n := range sizes {
		row1 := []string{fmt.Sprintf("%d", n)}
		row2 := []string{fmt.Sprintf("%d", n)}
		for _, kind := range []string{KindHashStore, KindLevelDB} {
			s, _, err := openFresh(kind, Params{N: n, ValueSize: p.ValueSize}.WithDefaults(), nil)
			if err != nil {
				panic(err)
			}
			dLoad, err := loadPhase(s, n, p.ValueSize, nil)
			if err != nil {
				panic(err)
			}
			ops := n / 2
			dRead, err := readPhase(s, n, ops, ycsb.Uniform, p.Seed, nil)
			if err != nil {
				panic(err)
			}
			s.Close()
			row1 = append(row1, kops(n, dLoad))
			row2 = append(row2, kops(ops, dRead))
			p.logf("fig1 n=%d %s: load %s KOps/s, read %s KOps/s", n, kind, kops(n, dLoad), kops(ops, dRead))
		}
		load.Rows = append(load.Rows, row1)
		read.Rows = append(read.Rows, row2)
	}
	return []Table{load, read}
}

// Fig2 reproduces the access-skew measurement: load a leveled LSM, issue
// zipfian reads, and report per-level table counts vs access share.
// Expected shape: the last level holds most tables but a small share of
// accesses (paper: ~70 % of tables, ~9 % of accesses).
func Fig2(p Params) []Table {
	p = p.WithDefaults()
	s, _, err := openFresh(KindLevelDB, p, nil)
	if err != nil {
		panic(err)
	}
	defer s.Close()
	if _, err := loadPhase(s, p.N, p.ValueSize, nil); err != nil {
		panic(err)
	}
	// Real KV workloads skew toward recently written data (the paper's
	// premise); the Latest distribution models that. Rank-zipfian would
	// instead hammer the earliest-inserted keys, which compaction has
	// already pushed to the deepest level.
	if _, err := readPhase(s, p.N, p.Ops, ycsb.Latest, p.Seed, nil); err != nil {
		panic(err)
	}
	db := s.(*lsmStore).DB()
	stats := db.Stats()
	var totalTables int
	var totalAccesses int64
	for _, ls := range stats.Levels {
		totalTables += ls.Tables
		totalAccesses += ls.Accesses
	}
	t := Table{
		Title: "fig2: SSTable access frequency by level (leveled LSM, latest-skewed reads)",
		Note: fmt.Sprintf("%d records loaded, %d latest-skewed reads; %d tables, %d table accesses",
			p.N, p.Ops, totalTables, totalAccesses),
		Header: []string{"level", "tables", "tables%", "accesses", "accesses%"},
	}
	for _, ls := range stats.Levels {
		if ls.Tables == 0 && ls.Accesses == 0 {
			continue
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("L%d", ls.Level),
			fmt.Sprintf("%d", ls.Tables),
			percent(int64(ls.Tables), int64(totalTables)),
			fmt.Sprintf("%d", ls.Accesses),
			percent(ls.Accesses, totalAccesses),
		})
	}
	return []Table{t}
}

func percent(part, total int64) string {
	if total == 0 {
		return "0.0%"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(total))
}

// TabIO reproduces the I/O-cost analysis as measured amplification: logical
// bytes written/read by the engine divided by user bytes, during load and a
// read phase. Expected shape: UniKV's write amp and read amp are several
// times lower than the leveled LSM's.
func TabIO(p Params) []Table {
	p = p.WithDefaults()
	t := Table{
		Title: "tab-io: measured I/O amplification (load + zipfian reads)",
		Note: fmt.Sprintf("%d records x %dB; write-amp = engine bytes written / user bytes; read-amp = engine bytes read / user bytes requested",
			p.N, p.ValueSize),
		Header: []string{"store", "write-amp(load)", "read-amp(reads)", "read-ops/get"},
	}
	userWrite := float64(p.N) * float64(p.ValueSize+20)
	for _, kind := range []string{KindLevelDB, KindRocksDB, KindHyperLevelDB, KindPebblesDB, KindUniKV} {
		s, fs, err := openFresh(kind, p, nil)
		if err != nil {
			panic(err)
		}
		if _, err := loadPhase(s, p.N, p.ValueSize, nil); err != nil {
			panic(err)
		}
		wrote := float64(fs.Counters().BytesWritten.Load())
		before := fs.Counters().BytesRead.Load()
		readOpsBefore := fs.Counters().ReadOps.Load()
		if _, err := readPhase(s, p.N, p.Ops, ycsb.Zipfian, p.Seed, nil); err != nil {
			panic(err)
		}
		readBytes := float64(fs.Counters().BytesRead.Load() - before)
		readOps := float64(fs.Counters().ReadOps.Load() - readOpsBefore)
		userRead := float64(p.Ops) * float64(p.ValueSize+20)
		s.Close()
		t.Rows = append(t.Rows, []string{
			kind,
			ratio(wrote / userWrite),
			ratio(readBytes / userRead),
			ratio(readOps / float64(p.Ops)),
		})
		p.logf("tab-io %s: WA=%.2f RA=%.2f ops/get=%.2f",
			kind, wrote/userWrite, readBytes/userRead, readOps/float64(p.Ops))
	}
	return []Table{t}
}
