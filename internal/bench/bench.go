package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"unikv/internal/vfs"
	"unikv/internal/ycsb"
)

// Params sizes an experiment run. Zero values pick the defaults used by
// `go test -bench` (laptop scale); cmd/unikv-bench lets you raise them
// toward the paper's scale.
type Params struct {
	// N is the number of records loaded before the measured phase.
	N int
	// ValueSize is the value payload in bytes.
	ValueSize int
	// Ops is the number of measured operations per phase.
	Ops int
	// Seed randomizes workloads deterministically.
	Seed int64
	// Stores restricts the engine set (default AllKinds).
	Stores []string
	// Progress receives live progress lines (nil = silent).
	Progress io.Writer
	// BackgroundWorkers runs UniKV with that many maintenance workers
	// (0 = inline scheduling, the default). Applies to every experiment;
	// fig-latency additionally compares both modes side by side.
	BackgroundWorkers int
}

// WithDefaults fills unset fields.
func (p Params) WithDefaults() Params {
	if p.N <= 0 {
		p.N = 20000
	}
	if p.ValueSize <= 0 {
		p.ValueSize = 256
	}
	if p.Ops <= 0 {
		p.Ops = p.N / 2
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if len(p.Stores) == 0 {
		p.Stores = AllKinds()
	}
	return p
}

// DatasetBytes estimates the loaded dataset size.
func (p Params) DatasetBytes() int64 {
	return int64(p.N) * int64(p.ValueSize+20)
}

func (p Params) logf(format string, args ...any) {
	if p.Progress != nil {
		fmt.Fprintf(p.Progress, format+"\n", args...)
	}
}

// Table is one experiment artifact: the rows of a paper table or the
// series of a paper figure. Metrics carries the machine-readable
// measurements behind the rows — the payload of BENCH_<name>.json and the
// values the CI regression gate compares (experiments that predate the
// gate leave it empty).
type Table struct {
	Title   string
	Note    string
	Header  []string
	Rows    [][]string
	Metrics []Metric
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "   %s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// kops formats a throughput in thousand ops/sec.
func kops(ops int, d time.Duration) string {
	if d <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1f", float64(ops)/d.Seconds()/1000)
}

// ratio formats a float with 2 decimals.
func ratio(v float64) string { return fmt.Sprintf("%.2f", v) }

// ---------------------------------------------------------------------------
// Workload phases. Each returns the phase's wall time and, given a non-nil
// Hist, records every op's latency in it; a nil Hist reads no per-op clock.

// loadPhase inserts n records in random key order (the paper's random-load
// microbenchmark).
func loadPhase(s Store, n, valueSize int, h *Hist) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := h.start()
		if err := s.Put(ycsb.Key(i), ycsb.Value(i, valueSize)); err != nil {
			return 0, err
		}
		h.stop(t0)
	}
	return time.Since(start), nil
}

// readPhase performs ops point reads; dist selects keys over [0, n).
func readPhase(s Store, n, ops int, dist ycsb.Distribution, seed int64, h *Hist) (time.Duration, error) {
	w := ycsb.Workload{Name: "read", ReadProp: 1, Dist: dist}
	c := ycsb.NewClient(w, n, seed)
	start := time.Now()
	for i := 0; i < ops; i++ {
		op := c.Next()
		t0 := h.start()
		if _, err := s.Get(op.Key); err != nil && !isNotFound(err) {
			return 0, err
		}
		h.stop(t0)
	}
	return time.Since(start), nil
}

// scanPhase performs ops scans of scanLen entries from uniform random start
// keys.
func scanPhase(s Store, n, ops, scanLen int, seed int64, h *Hist) (time.Duration, error) {
	rnd := rand.New(rand.NewSource(seed))
	start := time.Now()
	for i := 0; i < ops; i++ {
		k := ycsb.Key(rnd.Intn(n))
		t0 := h.start()
		if _, err := s.Scan(k, scanLen); err != nil {
			return 0, err
		}
		h.stop(t0)
	}
	return time.Since(start), nil
}

// updatePhase performs ops zipfian overwrites (includes merge/compaction/GC
// cost, per the paper's measurement methodology).
func updatePhase(s Store, n, ops, valueSize int, seed int64, h *Hist) (time.Duration, error) {
	w := ycsb.Workload{Name: "update", UpdateProp: 1, Dist: ycsb.Zipfian}
	c := ycsb.NewClient(w, n, seed)
	start := time.Now()
	for i := 0; i < ops; i++ {
		op := c.Next()
		t0 := h.start()
		if err := s.Put(op.Key, ycsb.Value(i, valueSize)); err != nil {
			return 0, err
		}
		h.stop(t0)
	}
	return time.Since(start), nil
}

// isNotFound matches any engine's not-found error.
func isNotFound(err error) bool {
	return err != nil && strings.Contains(err.Error(), "not found")
}

// runYCSB executes ops operations of workload w and returns the wall time.
func runYCSB(s Store, w ycsb.Workload, n, ops, valueSize int, seed int64) (time.Duration, error) {
	c := ycsb.NewClient(w, n, seed)
	start := time.Now()
	for i := 0; i < ops; i++ {
		op := c.Next()
		switch op.Type {
		case ycsb.OpRead:
			if _, err := s.Get(op.Key); err != nil && !isNotFound(err) {
				return 0, err
			}
		case ycsb.OpUpdate, ycsb.OpInsert:
			if err := s.Put(op.Key, ycsb.Value(i, valueSize)); err != nil {
				return 0, err
			}
		case ycsb.OpScan:
			if _, err := s.Scan(op.Key, op.ScanLen); err != nil && err != ErrScanUnsupported {
				return 0, err
			}
		case ycsb.OpReadModifyWrite:
			if _, err := s.Get(op.Key); err != nil && !isNotFound(err) {
				return 0, err
			}
			if err := s.Put(op.Key, ycsb.Value(i, valueSize)); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(start), nil
}

// openFresh opens kind over a fresh in-memory FS sized for p and returns
// the store plus its FS (for I/O accounting).
func openFresh(kind string, p Params, tweak func(env *Env)) (Store, vfs.FS, error) {
	env := Env{FS: vfs.NewMem(), DatasetBytes: p.DatasetBytes(), BackgroundWorkers: p.BackgroundWorkers}
	if tweak != nil {
		tweak(&env)
	}
	s, err := OpenStore(kind, env)
	if err != nil {
		return nil, nil, err
	}
	return s, env.FS, nil
}

// sortedCopy returns a sorted copy of m's keys.
func sortedCopy(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
