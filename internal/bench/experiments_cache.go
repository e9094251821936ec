package bench

import (
	"fmt"
	"time"

	"unikv/internal/core"
	"unikv/internal/ycsb"
)

// FigCache measures the sharded block/value read cache on skewed reads:
// zipfian YCSB-C (read-only) and YCSB-B (95% read / 5% update) against a
// dataset settled into the SortedStore — so point reads resolve through a
// table block plus a value-log read — across cache sizes including off.
// Expected shape: hit rate and throughput grow with cache size until the
// zipfian hot set fits; cache-off matches the pre-cache engine (~1 block
// read per Get, the paper's no-Bloom-filter design point).
func FigCache(p Params) []Table {
	p = p.WithDefaults()
	ds := p.DatasetBytes()
	sizes := []struct {
		name  string
		bytes int64
	}{
		{"off", core.CacheOff},
		{"ds/16", ds / 16},
		{"ds/4", ds / 4},
		{"ds", ds},
	}
	workloads := []struct {
		name string
		w    ycsb.Workload
	}{
		{"ycsb-c", ycsb.WorkloadC},
		{"ycsb-b", ycsb.WorkloadB},
	}
	t := Table{
		Title: "fig-cache: read cache vs skewed reads (zipfian)",
		Note: fmt.Sprintf("%d records x %dB compacted into the sorted tier; %d ops per phase after one warming pass",
			p.N, p.ValueSize, p.Ops),
		Header: []string{"cache", "workload", "kops", "blk-hit", "val-hit", "speedup"},
	}
	base := map[string]time.Duration{}
	for _, sz := range sizes {
		for _, wl := range workloads {
			s, _ := openUniKV(p, func(o *core.Options) { o.CacheBytes = sz.bytes })
			if _, err := loadPhase(s, p.N, p.ValueSize, nil); err != nil {
				panic(err)
			}
			if err := s.Compact(); err != nil {
				panic(err)
			}
			// Warm pass: faults the zipfian hot set into the cache so the
			// measured phase reflects steady state, not cold misses.
			if _, err := runYCSB(s, wl.w, p.N, p.Ops, p.ValueSize, p.Seed); err != nil {
				panic(err)
			}
			m0 := s.(*unikvStore).Metrics()
			d, err := runYCSB(s, wl.w, p.N, p.Ops, p.ValueSize, p.Seed+1)
			if err != nil {
				panic(err)
			}
			m1 := s.(*unikvStore).Metrics()
			s.Close()

			speedup := "1.00x"
			if sz.bytes == core.CacheOff {
				base[wl.name] = d
			} else if b := base[wl.name]; b > 0 && d > 0 {
				speedup = fmt.Sprintf("%.2fx", b.Seconds()/d.Seconds())
			}
			t.Rows = append(t.Rows, []string{
				sz.name, wl.name, kops(p.Ops, d),
				hitRate(m1.CacheBlockHits-m0.CacheBlockHits, m1.CacheBlockMisses-m0.CacheBlockMisses),
				hitRate(m1.CacheValueHits-m0.CacheValueHits, m1.CacheValueMisses-m0.CacheValueMisses),
				speedup,
			})
			p.logf("fig-cache %s/%s done", sz.name, wl.name)
		}
	}
	return []Table{t}
}

// hitRate formats hits/(hits+misses) as a percentage ("-" when idle).
func hitRate(hits, misses int64) string {
	if hits+misses == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(hits+misses))
}
