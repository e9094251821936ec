package bench

import (
	"fmt"
	"time"

	"unikv/internal/core"
	"unikv/internal/ycsb"
)

// FigScan measures range-scan cost against the number of overlapping
// unsorted tables, sorted view on vs off. The view's claim is REMIX's:
// with k overlapping tables a scan without the view pays a k-way merge —
// every step compares the heads of k iterators — while the view pays one
// binary search on a globally sorted entry array and then walks it
// sequentially, so view-on throughput should hold roughly flat as k grows
// while view-off degrades with k.
//
// Table counts are exact: records are loaded round-robin in k rounds with
// a forced flush after each, so every table spans the whole keyspace
// (maximum overlap, the adversarial shape for the merge). Scan merge is
// disabled and UnsortedLimit raised above the dataset so the store stays
// at k tables for the measured phase — this isolates the mechanism the
// scan-merge trigger exists to bound in production.
func FigScan(p Params) []Table {
	p = p.WithDefaults()
	tableCounts := []int{4, 16, 32}
	const scanLen = 50
	modes := []struct {
		name string
		off  bool
	}{
		{"off", true},
		{"on", false},
	}
	t := Table{
		Title: "fig-scan: range scans vs unsorted table count, sorted view on/off",
		Note: fmt.Sprintf("%d records x %dB loaded round-robin into k fully overlapping tables; %d scans x %d entries per phase after one warming pass",
			p.N, p.ValueSize, p.Ops, scanLen),
		Header: []string{"tables", "view", "kops", "p50", "p99", "view-mem", "speedup"},
	}
	base := map[int]time.Duration{}
	for _, k := range tableCounts {
		for _, mode := range modes {
			off := mode.off
			s, _ := openUniKV(p, func(o *core.Options) {
				core.ExperimentOf(o).SortedViewOff = off
				// One explicit flush per round is the only table source.
				o.MemtableSize = 2 * p.DatasetBytes()
				o.UnsortedLimit = 8 * p.DatasetBytes()
				o.HashBuckets = 1 << 14
				core.ExperimentOf(o).DisableScanMerge = true
			})
			db := s.(*unikvStore).DB()
			// Round r holds keys {r, r+k, r+2k, ...}: every table covers
			// the whole keyspace.
			for r := 0; r < k; r++ {
				for i := r; i < p.N; i += k {
					if err := s.Put(ycsb.Key(i), ycsb.Value(i, p.ValueSize)); err != nil {
						panic(err)
					}
				}
				if err := db.Flush(); err != nil {
					panic(err)
				}
			}
			// Warm pass: faults blocks into the cache (and, view-on, pays
			// any lazy build) so the measured phase is steady state.
			if _, err := scanPhase(s, p.N, p.Ops, scanLen, p.Seed, nil); err != nil {
				panic(err)
			}
			var h Hist
			d, err := scanPhase(s, p.N, p.Ops, scanLen, p.Seed+1, &h)
			if err != nil {
				panic(err)
			}
			m := s.(*unikvStore).Metrics()
			s.Close()

			speedup := "1.00x"
			if mode.off {
				base[k] = d
			} else if b := base[k]; b > 0 && d > 0 {
				speedup = fmt.Sprintf("%.2fx", b.Seconds()/d.Seconds())
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(m.UnsortedTables), mode.name,
				kops(p.Ops, d),
				fmtLat(h.Quantile(0.50)), fmtLat(h.Quantile(0.99)),
				fmt.Sprintf("%dKB", m.SortedViewBytes>>10),
				speedup,
			})
			prefix := fmt.Sprintf("fig-scan/t%d/%s", k, mode.name)
			t.Metrics = append(t.Metrics,
				Metric{Name: prefix + "/kops", Unit: "kops", Better: "higher",
					Value: float64(p.Ops) / d.Seconds() / 1000},
				Metric{Name: prefix + "/p50", Unit: "us", Better: "lower",
					Value: float64(h.Quantile(0.50).Nanoseconds()) / 1e3},
				Metric{Name: prefix + "/p99", Unit: "us", Better: "lower",
					Value: float64(h.Quantile(0.99).Nanoseconds()) / 1e3},
			)
			p.logf("fig-scan t%d/%s done", k, mode.name)
		}
	}
	return []Table{t}
}
