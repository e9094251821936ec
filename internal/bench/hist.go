package bench

import (
	"fmt"
	"math"
	"time"

	"unikv/internal/ycsb"
)

// Hist is a log-bucketed latency histogram: ~7% bucket growth from 100 ns
// up, which resolves p50/p99/p99.9 to well under one bucket of error for
// the microsecond-to-second range the benchmarks produce. Not safe for
// concurrent Record; give each worker its own Hist and Merge at the end.
type Hist struct {
	buckets [histBuckets]int64
	count   int64
	max     time.Duration
}

const (
	histBuckets = 400
	histBase    = 100 // ns lower bound of bucket 0
	histGrowth  = 1.07
)

var histLogGrowth = math.Log(histGrowth)

func histBucket(d time.Duration) int {
	ns := float64(d.Nanoseconds())
	if ns <= histBase {
		return 0
	}
	b := int(math.Log(ns/histBase) / histLogGrowth)
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// histBound returns the upper bound of bucket b.
func histBound(b int) time.Duration {
	return time.Duration(histBase * math.Pow(histGrowth, float64(b+1)))
}

// Record adds one observation.
func (h *Hist) Record(d time.Duration) {
	h.buckets[histBucket(d)]++
	h.count++
	if d > h.max {
		h.max = d
	}
}

// start returns the time an op starts; a nil h (an untimed phase) reads no
// clock.
func (h *Hist) start() time.Time {
	if h == nil {
		return time.Time{}
	}
	return time.Now()
}

// stop records the latency of an op that started at t0; a nil h records
// nothing.
func (h *Hist) stop(t0 time.Time) {
	if h != nil {
		h.Record(time.Since(t0))
	}
}

// Merge folds o into h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.count += o.count
	if o.max > h.max {
		h.max = o.max
	}
}

// Count returns the number of observations.
func (h *Hist) Count() int64 { return h.count }

// Max returns the largest observation.
func (h *Hist) Max() time.Duration { return h.max }

// Quantile returns the latency at quantile q in [0, 1].
func (h *Hist) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	rank := int64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var cum int64
	for b, c := range h.buckets {
		cum += c
		if cum > rank {
			ub := histBound(b)
			if ub > h.max {
				return h.max
			}
			return ub
		}
	}
	return h.max
}

// fmtLat renders a latency compactly (µs below 10 ms, ms above).
func fmtLat(d time.Duration) string {
	if d < 10*time.Millisecond {
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	}
	return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
}

// LatencyRow renders the standard percentile columns for a table row.
func (h *Hist) LatencyRow() []string {
	return []string{
		fmtLat(h.Quantile(0.50)),
		fmtLat(h.Quantile(0.99)),
		fmtLat(h.Quantile(0.999)),
		fmtLat(h.Max()),
	}
}

// LatencyHeader matches LatencyRow.
func LatencyHeader() []string { return []string{"p50", "p99", "p99.9", "max"} }

// FigLatency measures per-op latency percentiles for load/read/update on
// UniKV with inline vs background maintenance — the tail-latency claim
// behind the background scheduler: the tentpole moves flush/merge/GC/split
// off the foreground path, so put tails should drop while throughput
// holds or improves.
func FigLatency(p Params) []Table {
	p = p.WithDefaults()
	modes := []struct {
		name    string
		workers int
	}{
		{"inline", 0},
		{"background", p.BackgroundWorkers},
	}
	if modes[1].workers <= 0 {
		modes[1].workers = 4
	}
	t := Table{
		Title: "per-op latency: inline vs background maintenance (unikv)",
		Note: fmt.Sprintf("%d records x %dB values, %d ops/phase; background = %d workers",
			p.N, p.ValueSize, p.Ops, modes[1].workers),
		Header: append([]string{"mode", "phase", "kops/s"}, LatencyHeader()...),
	}
	for _, mode := range modes {
		workers := mode.workers
		s, _, err := openFresh(KindUniKV, p, func(env *Env) {
			env.BackgroundWorkers = workers
		})
		if err != nil {
			t.Rows = append(t.Rows, []string{mode.name, "open", err.Error()})
			continue
		}
		var hLoad, hRead, hUpd Hist
		dLoad, err := loadPhase(s, p.N, p.ValueSize, &hLoad)
		if err == nil {
			t.Rows = append(t.Rows, append([]string{mode.name, "load", kops(p.N, dLoad)}, hLoad.LatencyRow()...))
			err = s.Compact()
		}
		if err == nil {
			var dRead time.Duration
			dRead, err = readPhase(s, p.N, p.Ops, ycsb.Uniform, p.Seed, &hRead)
			if err == nil {
				t.Rows = append(t.Rows, append([]string{mode.name, "read", kops(p.Ops, dRead)}, hRead.LatencyRow()...))
			}
		}
		if err == nil {
			var dUpd time.Duration
			dUpd, err = updatePhase(s, p.N, p.Ops, p.ValueSize, p.Seed, &hUpd)
			if err == nil {
				t.Rows = append(t.Rows, append([]string{mode.name, "update", kops(p.Ops, dUpd)}, hUpd.LatencyRow()...))
			}
		}
		s.Close()
		if err != nil {
			t.Rows = append(t.Rows, []string{mode.name, "error", err.Error()})
		}
		p.logf("fig-latency: %s done", mode.name)
	}
	return []Table{t}
}
