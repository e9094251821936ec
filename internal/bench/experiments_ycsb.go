package bench

import (
	"fmt"

	"unikv/internal/ycsb"
)

// Fig8 reproduces the mixed-workload evaluation: YCSB core workloads A–F.
// Expected shape: UniKV leads on the read/update mixes (A, B, C, F) and on
// D; on the scan-heavy E it is comparable to LevelDB and ahead of
// PebblesDB.
func Fig8(p Params) []Table {
	p = p.WithDefaults()
	t := Table{
		Title: "fig8: YCSB core workloads (KOps/s)",
		Note: fmt.Sprintf("%d-record load, %d ops per workload, zipfian unless noted; E scans ≤100 entries",
			p.N, p.Ops),
		Header: append([]string{"workload"}, p.Stores...),
	}
	for _, w := range ycsb.CoreWorkloads() {
		row := []string{w.Name}
		for _, kind := range p.Stores {
			s, _, err := openFresh(kind, p, nil)
			if err != nil {
				panic(err)
			}
			if _, err := loadPhase(s, p.N, p.ValueSize, nil); err != nil {
				panic(err)
			}
			d, err := runYCSB(s, w, p.N, p.Ops, p.ValueSize, p.Seed)
			if err != nil {
				panic(err)
			}
			s.Close()
			row = append(row, kops(p.Ops, d))
			p.logf("fig8 %s %s: %s KOps/s", w.Name, kind, kops(p.Ops, d))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}
}
