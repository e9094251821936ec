package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// mustRepeat reports whether a load-update metric is a count that two runs
// with one seed must reproduce exactly: one client and an inline executor
// leave nothing to chance, so a difference is nondeterminism in the engine.
func mustRepeat(name string) bool {
	switch name {
	case "write_amp", "space_amp", "core.flushes", "core.merges", "core.gcs", "core.splits":
		return true
	}
	return strings.HasPrefix(name, "vfs.") && strings.HasSuffix(name, "_bytes")
}

// loadBounds reads the end-to-end regression bounds from BENCHMARK.json,
// which sits in the working directory when the harness is started from the
// repository root, and one level up when it is started from perf/.
func loadBounds() (map[string]float64, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		if data, err = os.ReadFile("../BENCHMARK.json"); err != nil {
			return nil, err
		}
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	bounds := map[string]float64{}
	for _, m := range doc.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// compare prints how far b is from a on every metric, and reports whether
// every count that must repeat does (same) and whether every end-to-end
// metric stays within its bound (within).
func compare(stdout io.Writer, workload string, a, b *result, bounds map[string]float64) (same, within bool) {
	same, within = true, true
	fmt.Fprintf(stdout, "%-34s %16s %16s %9s %7s\n", "metric", "run 1", "run 2", "rel diff", "bound")
	for _, m := range a.metrics {
		x := m.value
		y, found := b.value(m.name)
		diff := 0.0
		if x != y {
			diff = math.Abs(x-y) / math.Max(math.Abs(x), math.Abs(y))
		}
		verdict := ""
		bound, bounded := bounds[m.name]
		switch {
		case !found:
			verdict, same = "MISSING", false
		case workload == "load-update" && mustRepeat(m.name):
			verdict = "identical"
			if x != y {
				verdict, same = "NOT IDENTICAL", false
			}
		case bounded && diff > bound:
			verdict, within = "OVER BOUND", false
		}
		boundText := ""
		if bounded {
			boundText = fmt.Sprintf("%.3f", bound)
		}
		fmt.Fprintf(stdout, "%-34s %16.4f %16.4f %9.4f %7s %s\n", m.name, x, y, diff, boundText, verdict)
	}
	if extra := len(b.metrics) - len(a.metrics); extra > 0 {
		fmt.Fprintf(stdout, "run 2 has %d metrics more than run 1: not the same kind of run\n", extra)
		same = false
	}
	return same, within
}

// readResult parses the result line an earlier run printed last.
func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var doc struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &doc); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	res := &result{}
	for name, m := range doc.Metrics {
		res.add(name, m.Value, m.Unit, "")
	}
	return res, nil
}

// selfCheck runs every workload twice, traced and untraced, with one seed,
// and compares the two runs. It fails when a count that must repeat does
// not, or an end-to-end metric moves by more than its bound.
func selfCheck(cfg runConfig, stdout, stderr io.Writer) int {
	bounds, err := loadBounds()
	if err != nil {
		fmt.Fprintln(stderr, "perf: selfcheck needs the bounds in BENCHMARK.json:", err)
		return 1
	}
	code := 0
	for i := range specs {
		for _, traced := range []bool{false, true} {
			c := cfg
			c.sp, c.trace = &specs[i], traced
			var pair [2]*result
			for r := range pair {
				res, err := runWorkload(c)
				if err != nil {
					fmt.Fprintf(stderr, "perf: %s: %v\n", c.sp.name, err)
					return 1
				}
				if !res.correct {
					fmt.Fprintf(stderr, "perf: %s: WRONG RESULTS: %d of %d operations failed\n", c.sp.name, res.failed, res.attempted)
					code = 1
				}
				pair[r] = res
			}
			fmt.Fprintf(stdout, "# %s, trace=%v\n", c.sp.name, traced)
			if same, within := compare(stdout, c.sp.name, pair[0], pair[1], bounds); !same || !within {
				code = 1
			}
		}
	}
	return code
}

// compareWithSaved holds a fresh run against the saved output of an earlier
// one, which is how two builds are compared on the counts that must repeat
// exactly: BENCHMARK.json has one bound per metric and cannot say "0 on
// load-update". Only those counts decide the outcome: one run against one
// run says nothing about a timing, in either direction.
func compareWithSaved(path string, res *result, stdout, stderr io.Writer) bool {
	bounds, err := loadBounds()
	if err == nil {
		var saved *result
		if saved, err = readResult(path); err == nil {
			fmt.Fprintf(stdout, "# %s: this run (run 1) against %s (run 2)\n", res.workload, path)
			same, _ := compare(stdout, res.workload, res, saved, bounds)
			return same
		}
	}
	fmt.Fprintln(stderr, "perf: --against:", err)
	return false
}
