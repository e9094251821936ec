package bench

import (
	"fmt"

	"unikv/internal/ycsb"
)

// Fig7 reproduces the microbenchmarks: load, random read, scan, and
// zipfian update throughput for every store. Expected shape: UniKV leads
// load/read/update; scan is within ~2x of LevelDB and not worse than
// PebblesDB.
func Fig7(p Params) []Table {
	p = p.WithDefaults()
	load := Table{
		Title:  "fig7a: random load throughput (KOps/s)",
		Note:   fmt.Sprintf("%d records x %dB values", p.N, p.ValueSize),
		Header: []string{"store", "KOps/s"},
	}
	read := Table{
		Title:  "fig7b: random read throughput (KOps/s)",
		Note:   fmt.Sprintf("%d uniform point reads after load+settle", p.Ops),
		Header: []string{"store", "KOps/s"},
	}
	scan := Table{
		Title:  "fig7c: scan throughput (Kscans/s, 50 entries each)",
		Note:   fmt.Sprintf("%d scans from random start keys", p.Ops/10),
		Header: []string{"store", "Kscans/s"},
	}
	update := Table{
		Title:  "fig7d: zipfian update throughput incl. compaction/GC (KOps/s)",
		Note:   fmt.Sprintf("%d zipfian overwrites", p.Ops),
		Header: []string{"store", "KOps/s"},
	}
	for _, kind := range p.Stores {
		s, _, err := openFresh(kind, p, nil)
		if err != nil {
			panic(err)
		}
		dLoad, err := loadPhase(s, p.N, p.ValueSize, nil)
		if err != nil {
			panic(err)
		}
		load.Rows = append(load.Rows, []string{kind, kops(p.N, dLoad)})
		p.logf("fig7 %s: load %s KOps/s", kind, kops(p.N, dLoad))

		// No forced compaction: reads measure the post-load state, as the
		// paper does.
		dRead, err := readPhase(s, p.N, p.Ops, ycsb.Uniform, p.Seed, nil)
		if err != nil {
			panic(err)
		}
		read.Rows = append(read.Rows, []string{kind, kops(p.Ops, dRead)})
		p.logf("fig7 %s: read %s KOps/s", kind, kops(p.Ops, dRead))

		scans := p.Ops / 10
		if scans < 1 {
			scans = 1
		}
		dScan, err := scanPhase(s, p.N, scans, 50, p.Seed, nil)
		if err != nil {
			panic(err)
		}
		scan.Rows = append(scan.Rows, []string{kind, kops(scans, dScan)})
		p.logf("fig7 %s: scan %s Kscans/s", kind, kops(scans, dScan))

		dUpd, err := updatePhase(s, p.N, p.Ops, p.ValueSize, p.Seed, nil)
		if err != nil {
			panic(err)
		}
		update.Rows = append(update.Rows, []string{kind, kops(p.Ops, dUpd)})
		p.logf("fig7 %s: update %s KOps/s", kind, kops(p.Ops, dUpd))
		s.Close()
	}
	return []Table{load, read, scan, update}
}

// Fig9 reproduces the scalability experiment: load+read throughput as the
// dataset grows. Expected shape: the baselines degrade with N (more
// levels/runs to search); UniKV stays comparatively flat (splits keep each
// partition's shape constant).
func Fig9(p Params) []Table {
	p = p.WithDefaults()
	sizes := []int{p.N / 8, p.N / 4, p.N / 2, p.N}
	load := Table{
		Title:  "fig9a: load throughput vs dataset size (KOps/s)",
		Header: append([]string{"records"}, p.Stores...),
	}
	read := Table{
		Title:  "fig9b: read throughput vs dataset size (KOps/s)",
		Header: append([]string{"records"}, p.Stores...),
	}
	for _, n := range sizes {
		rowL := []string{fmt.Sprintf("%d", n)}
		rowR := []string{fmt.Sprintf("%d", n)}
		for _, kind := range p.Stores {
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
			rowL = append(rowL, kops(n, dLoad))
			rowR = append(rowR, kops(ops, dRead))
			p.logf("fig9 n=%d %s: load %s read %s", n, kind, kops(n, dLoad), kops(ops, dRead))
		}
		load.Rows = append(load.Rows, rowL)
		read.Rows = append(read.Rows, rowR)
	}
	return []Table{load, read}
}

// Fig10 reproduces the KV-size experiment: load+read throughput across
// value sizes. Expected shape: KV separation pays off most at larger
// values (merge moves keys, not values).
func Fig10(p Params) []Table {
	p = p.WithDefaults()
	valueSizes := []int{256, 1024, 4096}
	load := Table{
		Title:  "fig10a: load throughput vs value size (MB/s of user data)",
		Header: append([]string{"value"}, p.Stores...),
	}
	read := Table{
		Title:  "fig10b: read throughput vs value size (KOps/s)",
		Header: append([]string{"value"}, p.Stores...),
	}
	for _, vs := range valueSizes {
		// Hold dataset bytes roughly constant across value sizes.
		n := p.N * p.ValueSize / vs
		if n < 500 {
			n = 500
		}
		rowL := []string{fmt.Sprintf("%dB", vs)}
		rowR := []string{fmt.Sprintf("%dB", vs)}
		for _, kind := range p.Stores {
			s, _, err := openFresh(kind, Params{N: n, ValueSize: vs}.WithDefaults(), nil)
			if err != nil {
				panic(err)
			}
			dLoad, err := loadPhase(s, n, vs, nil)
			if err != nil {
				panic(err)
			}
			s.Compact()
			ops := n / 2
			dRead, err := readPhase(s, n, ops, ycsb.Uniform, p.Seed, nil)
			if err != nil {
				panic(err)
			}
			s.Close()
			mbps := float64(n) * float64(vs) / 1e6 / dLoad.Seconds()
			rowL = append(rowL, fmt.Sprintf("%.1f", mbps))
			rowR = append(rowR, kops(ops, dRead))
			p.logf("fig10 v=%dB %s: load %.1f MB/s read %s KOps/s", vs, kind, mbps, kops(ops, dRead))
		}
		load.Rows = append(load.Rows, rowL)
		read.Rows = append(read.Rows, rowR)
	}
	return []Table{load, read}
}
