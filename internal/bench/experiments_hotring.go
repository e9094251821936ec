package bench

import (
	"fmt"
	"sync"
	"time"

	"unikv/internal/core"
	"unikv/internal/ycsb"
)

// runYCSBConcurrentHist drives workload w with `clients` concurrent
// workers, each running its own deterministic YCSB client (seed+worker)
// and recording per-op latency into its own histogram. Returns the wall
// time of the whole phase and the merged histogram. ops is the total
// across all workers.
func runYCSBConcurrentHist(s Store, w ycsb.Workload, n, ops, valueSize int, seed int64, clients int) (time.Duration, *Hist, error) {
	if clients < 1 {
		clients = 1
	}
	per := ops / clients
	if per < 1 {
		per = 1
	}
	hists := make([]Hist, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h := &hists[c]
			cl := ycsb.NewClient(w, n, seed+int64(c))
			for i := 0; i < per; i++ {
				op := cl.Next()
				t0 := time.Now()
				switch op.Type {
				case ycsb.OpRead:
					if _, err := s.Get(op.Key); err != nil && !isNotFound(err) {
						errs[c] = err
						return
					}
				case ycsb.OpUpdate, ycsb.OpInsert:
					if err := s.Put(op.Key, ycsb.Value(i, valueSize)); err != nil {
						errs[c] = err
						return
					}
				}
				h.Record(time.Since(t0))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	merged := &Hist{}
	for c := range hists {
		merged.Merge(&hists[c])
	}
	for _, err := range errs {
		if err != nil {
			return 0, nil, err
		}
	}
	return elapsed, merged, nil
}

// FigHotRing measures the hot-key read layer on skewed traffic: zipfian
// YCSB-C (read-only) and YCSB-B (95/5) at increasing client counts, ring
// on vs off, against a dataset settled into the sorted tier. The layer's
// claim is the single-probe fast path: the hottest keys skip partition
// routing, the partition read lock, the tiered lookup, and the value-log
// dereference entirely, so read p50/p99 and aggregate throughput should
// improve with skew and with contention (more clients), while YCSB-B's 5%
// writes exercise the invalidation protocol at full speed.
func FigHotRing(p Params) []Table {
	p = p.WithDefaults()
	clientCounts := []int{1, 8, 32}
	workloads := []struct {
		name string
		w    ycsb.Workload
	}{
		{"ycsb-c", ycsb.WorkloadC},
		{"ycsb-b", ycsb.WorkloadB},
	}
	modes := []struct {
		name    string
		entries int
	}{
		{"off", core.HotRingOff},
		{"on", 0}, // default size
	}
	t := Table{
		Title: "fig-hotring: hot-key read layer vs skewed reads (zipfian)",
		Note: fmt.Sprintf("%d records x %dB compacted into the sorted tier; %d ops per phase after one warming pass; hotring default size",
			p.N, p.ValueSize, p.Ops),
		Header: []string{"workload", "clients", "hotring", "kops", "p50", "p99", "ring-hit", "speedup"},
	}
	base := map[string]time.Duration{}
	for _, wl := range workloads {
		for _, clients := range clientCounts {
			for _, mode := range modes {
				entries := mode.entries
				s, _ := openUniKV(p, func(o *core.Options) { o.HotRingEntries = entries })
				if _, err := loadPhase(s, p.N, p.ValueSize, nil); err != nil {
					panic(err)
				}
				if err := s.Compact(); err != nil {
					panic(err)
				}
				// Warm pass: promotes the zipfian hot set into the ring (and
				// faults it into the cache) so the measured phase reflects
				// steady state.
				if _, _, err := runYCSBConcurrentHist(s, wl.w, p.N, p.Ops, p.ValueSize, p.Seed, clients); err != nil {
					panic(err)
				}
				m0 := s.(*unikvStore).Metrics()
				d, h, err := runYCSBConcurrentHist(s, wl.w, p.N, p.Ops, p.ValueSize, p.Seed+1, clients)
				if err != nil {
					panic(err)
				}
				m1 := s.(*unikvStore).Metrics()
				s.Close()

				cfg := fmt.Sprintf("%s/c%d", wl.name, clients)
				speedup := "1.00x"
				if mode.name == "off" {
					base[cfg] = d
				} else if b := base[cfg]; b > 0 && d > 0 {
					speedup = fmt.Sprintf("%.2fx", b.Seconds()/d.Seconds())
				}
				opsDone := int(h.Count())
				t.Rows = append(t.Rows, []string{
					wl.name, fmt.Sprint(clients), mode.name,
					kops(opsDone, d),
					fmtLat(h.Quantile(0.50)), fmtLat(h.Quantile(0.99)),
					hitRate(m1.HotRingHits-m0.HotRingHits, m1.HotRingMisses-m0.HotRingMisses),
					speedup,
				})
				prefix := "fig-hotring/" + cfg + "/" + mode.name
				t.Metrics = append(t.Metrics,
					Metric{Name: prefix + "/kops", Unit: "kops", Better: "higher",
						Value: float64(opsDone) / d.Seconds() / 1000},
					Metric{Name: prefix + "/p50", Unit: "us", Better: "lower",
						Value: float64(h.Quantile(0.50).Nanoseconds()) / 1e3},
					Metric{Name: prefix + "/p99", Unit: "us", Better: "lower",
						Value: float64(h.Quantile(0.99).Nanoseconds()) / 1e3},
				)
				p.logf("fig-hotring %s/%s done", cfg, mode.name)
			}
		}
	}
	return []Table{t}
}
