// Command perf is the repository's performance ledger: five named
// workloads over the embedded store and the network server, nine end-to-end
// metrics, and per-layer attribution taken entirely from outside the engine.
// See README.md in this directory and BENCHMARK.json at the repository root.
//
//	perf --workload cold-read --seed 1 --seconds 10 --trace 0   one run, end-to-end metrics
//	perf --workload cold-read --seed 1 --seconds 10 --trace 1   one traced run, per-layer metrics
//	perf --seed 1                                              every workload, both ways
//	perf --selfcheck                                           the whole set twice, compared
//	perf --workload load-update --seed 1 --against old.txt     one run, compared with the saved output of another build's
//
// The last line of standard output of a single run is one JSON object:
// correct, attempted, failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// result is the outcome of one run of one workload.
type result struct {
	workload  string
	trace     bool
	correct   bool
	attempted int64
	failed    int64
	metrics   []metric
	notes     []string
}

func (r *result) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name, value, unit, note})
}

func (r *result) value(name string) (float64, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

// print writes every metric by name and unit, then the JSON result line.
func (r *result) print(w io.Writer) error {
	mode := "end-to-end"
	if r.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "# %s, %s\n", r.workload, mode)
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]jsonMetric{}}
	for _, m := range r.metrics {
		note := ""
		if m.note != "" {
			note = "  (" + m.note + ")"
		}
		fmt.Fprintf(w, "%-34s %16.4f %-6s%s\n", m.name, m.value, m.unit, note)
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perf", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload to run (default: all of them, traced and untraced)")
	seed := fl.Uint64("seed", 1, "seed of every generated input")
	seconds := fl.Float64("seconds", 10, "length of the measured phase on the reference box; scales the fixed op counts")
	trace := fl.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: timed run printing the end-to-end metrics")
	fsKind := fl.String("fs", "mem", "file system under the store: mem, or os (a temporary directory with real fsync; manual profiles only)")
	outDir := fl.String("out", "perf/out", "directory for trace files and the os file system's temporary directory")
	scale := fl.Float64("scale", 1, "shrink datasets and op counts by this factor (smoke tests)")
	selfcheck := fl.Bool("selfcheck", false, "run every workload twice with the same seed and compare")
	against := fl.String("against", "", "with --workload: compare the run with the saved output of an earlier one (same workload, seed, seconds and trace)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() > 0 || *seconds <= 0 || *scale <= 0 || (*trace != 0 && *trace != 1) || (*fsKind != "mem" && *fsKind != "os") ||
		(*against != "" && *workload == "") {
		fmt.Fprintln(stderr, "perf: bad arguments")
		fl.Usage()
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, scale: *scale, trace: *trace == 1, osFS: *fsKind == "os", outDir: *outDir}
	if *selfcheck {
		return selfCheck(cfg, stdout, stderr)
	}
	var runs []runConfig
	if *workload != "" {
		cfg.sp = specByName(*workload)
		if cfg.sp == nil {
			fmt.Fprintf(stderr, "perf: unknown workload %q\n", *workload)
			return 2
		}
		runs = []runConfig{cfg}
	} else {
		for i := range specs {
			for _, traced := range []bool{false, true} {
				c := cfg
				c.sp, c.trace = &specs[i], traced
				runs = append(runs, c)
			}
		}
	}
	code := 0
	for _, c := range runs {
		res, err := runWorkload(c)
		if err != nil {
			fmt.Fprintf(stderr, "perf: %s: %v\n", c.sp.name, err)
			return 1
		}
		// The comparison goes first: the result line stays the last one.
		if *against != "" && !compareWithSaved(*against, res, stdout, stderr) {
			code = 1
		}
		if err := res.print(stdout); err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			return 1
		}
		if !res.correct {
			fmt.Fprintf(stderr, "perf: %s: WRONG RESULTS: %d of %d operations failed\n", c.sp.name, res.failed, res.attempted)
			code = 1
		}
	}
	return code
}
