package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"unikv"
	"unikv/internal/vfs"
)

// stream serialises the first n requests of one client of a workload.
func stream(sp *spec, seed uint64, client, n int) []byte {
	e := &env{cfg: runConfig{sp: sp, seed: seed, scale: 1}, n: 5000}
	e.zipf = newZipfian(e.n)
	g := e.mixGen(client)
	var out []byte
	for i := 0; i < n; i++ {
		o := g.next()
		out = append(out, byte(o.kind))
		out = binary.LittleEndian.AppendUint64(out, o.num)
		out = binary.LittleEndian.AppendUint32(out, uint32(o.limit))
	}
	return out
}

func TestOpStreamRepeats(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		a, b := stream(sp, 7, 0, 4000), stream(sp, 7, 0, 4000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed, different streams", sp.name)
		}
		if bytes.Equal(a, stream(sp, 8, 0, 4000)) {
			t.Errorf("%s: different seeds, same stream", sp.name)
		}
		if sp.clients > 1 && bytes.Equal(a, stream(sp, 7, 1, 4000)) {
			t.Errorf("%s: two clients share one stream", sp.name)
		}
	}
}

func TestPutsStayWithTheirOwner(t *testing.T) {
	sp := specByName("hot-read-update")
	e := &env{cfg: runConfig{sp: sp, seed: 1, scale: 1}, n: 5001}
	e.zipf = newZipfian(e.n)
	for c := 0; c < sp.clients; c++ {
		g := e.mixGen(c)
		for i := 0; i < 20000; i++ {
			o := g.next()
			if idx := o.num / keyStride; idx >= e.n {
				t.Fatalf("client %d: key index %d out of range", c, idx)
			} else if o.kind == opPut && int(idx)%sp.clients != c {
				t.Fatalf("client %d writes key %d, which it does not own", c, idx)
			}
		}
	}
}

func TestInsertsNeverCollide(t *testing.T) {
	sp := specByName("scan-insert")
	e := &env{cfg: runConfig{sp: sp, seed: 1, scale: 1}, n: 6000}
	e.zipf = newZipfian(e.n)
	seen := map[uint64]bool{}
	for c := 0; c < sp.clients; c++ {
		g := e.mixGen(c)
		for i := 0; i < 15000; i++ { // fewer inserts than slots: a client's slots repeat after n of them
			if o := g.next(); o.kind == opPut {
				if o.num%keyStride == 0 || seen[o.num] {
					t.Fatalf("insert of key %d: loaded or already inserted", o.num)
				}
				seen[o.num] = true
			}
		}
	}
	if len(seen) < 5000 {
		t.Fatalf("only %d inserts in 30000 ops", len(seen))
	}
}

func TestZipfianSkew(t *testing.T) {
	const n, draws = 100000, 400000
	z := newZipfian(n)
	r := rng(42)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		k := z.rank(&r)
		if k >= n {
			t.Fatalf("rank %d out of range", k)
		}
		counts[k]++
	}
	top := 0
	for _, c := range counts[:n/10] {
		top += c
	}
	// For theta = 0.99 the top tenth of the ranks draws about 81 %.
	if share := float64(top) / draws; share < 0.75 || share > 0.87 {
		t.Errorf("top 10%% of ranks draw %.3f of requests, want about 0.81", share)
	}
	if counts[0] < counts[1] || counts[1] < counts[10] || counts[10] < counts[1000] {
		t.Errorf("frequencies do not fall with rank: %d %d %d %d", counts[0], counts[1], counts[10], counts[1000])
	}
}

func TestHistQuantileError(t *testing.T) {
	r := rng(3)
	var h hist
	samples := make([]float64, 200000)
	for i := range samples {
		// Log-uniform over 50 ns .. 50 ms, the range latencies live in.
		v := int64(50 * math.Pow(1e6, r.float()))
		samples[i] = float64(v)
		h.add(v)
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		want := samples[int(q*float64(len(samples)))]
		if got := h.quantile(q); math.Abs(got-want)/want > 0.02 {
			t.Errorf("q%.3f = %.1f, exact %.1f: off by more than 2%%", q, got, want)
		}
	}
	var empty hist
	if empty.quantile(0.5) != 0 {
		t.Error("empty histogram must report 0")
	}
}

func TestValuesDescribeThemselves(t *testing.T) {
	vs := newValues(1)
	a, b := make([]byte, valLen), make([]byte, valLen)
	vs.fill(a, 4711*keyStride, 3)
	num, version, ok := decodeValue(a)
	if !ok || num != 4711*keyStride || version != 3 {
		t.Fatalf("decode = %d, %d, %v", num, version, ok)
	}
	vs.fill(b, 4711*keyStride, 4)
	if bytes.Equal(a[16:], b[16:]) {
		t.Error("two versions of a key share their filler")
	}
	for _, i := range []int{0, 9, 13, 500, valLen - 1} {
		a[i] ^= 1
		if _, _, ok := decodeValue(a); ok {
			t.Errorf("flipped byte %d goes unnoticed", i)
		}
		a[i] ^= 1
	}
	if _, _, ok := decodeValue(a[:valLen-1]); ok {
		t.Error("a truncated value passes")
	}
	key := appendKey(nil, 4711*keyStride)
	if got, ok := parseKey(key); len(key) != keyLen || !ok || got != 4711*keyStride {
		t.Errorf("key round trip: %q -> %d, %v", key, got, ok)
	}
}

// The tracing FS must be invisible to the engine: same capabilities as the
// FS it wraps, and an account of the I/O that matches the FS's own.
func TestTraceFSForwards(t *testing.T) {
	mem := vfs.NewMem()
	tr := newTracer("op.", 1)
	var fs vfs.FS = newTraceFS(mem, tr)

	lock, err := fs.TryLockDir("d")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.TryLockDir("d"); !errors.Is(err, vfs.ErrLocked) {
		t.Errorf("second TryLockDir = %v, want ErrLocked", err)
	}
	if err := lock.Release(); err != nil {
		t.Fatal(err)
	}

	// Crasher: an unsynced file does not survive.
	f, _ := fs.Create("volatile.sst")
	f.Write([]byte("x"))
	fs.(vfs.Crasher).Crash()
	if fs.Exists("volatile.sst") {
		t.Error("Crash was not forwarded to the in-memory FS")
	}

	// Linker: absent below means unsupported above; present below works.
	if err := fs.(vfs.Linker).Link("a", "b"); !errors.Is(err, errors.ErrUnsupported) {
		t.Errorf("Link over memFS = %v, want ErrUnsupported", err)
	}
	dir := t.TempDir()
	osfs := newTraceFS(vfs.NewOS(), tr)
	if err := osfs.WriteFile(filepath.Join(dir, "a"), []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := osfs.Link(filepath.Join(dir, "a"), filepath.Join(dir, "b")); err != nil || !osfs.Exists(filepath.Join(dir, "b")) {
		t.Errorf("Link over osFS: %v", err)
	}
}

func TestTraceFSTotalsMatchCounters(t *testing.T) {
	mem := vfs.NewMem()
	tr := newTracer("op.", 1)
	tr.switchBlock(true, 0)
	// Small tiers, so that a few thousand writes reach every file class.
	opts := &unikv.Options{FS: newTraceFS(mem, tr), MemtableSize: 64 << 10, UnsortedLimit: 256 << 10, PartitionSizeLimit: 2 << 20}
	db, err := unikv.Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	vs := newValues(1)
	val := make([]byte, valLen)
	for i := uint64(0); i < 6000; i++ {
		vs.fill(val, i%2000, uint32(i))
		if err := db.Put(appendKey(nil, i%2000), val); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 2000; i++ {
		if _, err := db.Get(appendKey(nil, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Scan(nil, nil, 500); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = unikv.Open("db", opts) // recovery reads the manifest, WAL and checkpoints
	if err != nil {
		t.Fatal(err)
	}
	db.Close()

	var sum classIO
	for c, ci := range tr.classes() {
		for k := 0; k < numIO; k++ {
			sum.bytes[k] += ci.bytes[k]
			sum.calls[k] += ci.calls[k]
		}
		if c != classOther && ci.bytes[ioWrite] == 0 {
			t.Errorf("no %s bytes written: the workload misses a file class", classNames[c])
		}
	}
	want := mem.Counters().Snapshot()
	got := vfs.CounterSnapshot{
		BytesWritten: sum.bytes[ioWrite], BytesRead: sum.bytes[ioRead],
		WriteOps: sum.calls[ioWrite], ReadOps: sum.calls[ioRead], Syncs: sum.calls[ioSync],
	}
	want.DirSyncs, want.FilesCreated, want.FilesDeleted = 0, 0, 0
	if got != want {
		t.Errorf("per-class totals %v\n       vfs.Counters %v", got, want)
	}
}

type benchmarkDoc struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload both ways at 1/50 scale with all checks on,
// through the command line, and holds the output against BENCHMARK.json:
// exactly the metrics it lists, in its units, and a well-formed last line.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(doc.Workloads), len(specs))
	}
	if len(doc.PerLayer) > 128 || len(doc.EndToEnd) > 16 {
		t.Fatalf("too many metrics: %d end to end, %d per layer", len(doc.EndToEnd), len(doc.PerLayer))
	}
	out := t.TempDir()
	for _, w := range doc.Workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "5", "--seconds", "10", "--trace", trace, "--scale", "0.02", "--out", out}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s%s", w.Name, trace, code, stdout.String(), stderr.String())
			}
			lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
			var res struct {
				Correct   bool  `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result object: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := map[string]string{}
			if trace == "0" {
				for _, m := range doc.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range doc.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok || m.Value == nil:
					t.Errorf("%s trace=%s: metric %s missing", w.Name, trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%s: %s in %q, BENCHMARK.json says %q", w.Name, trace, name, m.Unit, unit)
				case trace == "0" && !(*m.Value > 0) && name != "read_amp": // at 1/50 scale D1 fits in the read cache

					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, name, *m.Value)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%s: metric %s is not in BENCHMARK.json", w.Name, trace, name)
				}
			}
			if trace == "1" {
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
			}
		}
	}
}

// The checks must reject what a broken store could return, and a failed
// run must say so on its result line.
func TestWrongResultsAreCaught(t *testing.T) {
	e := &env{cfg: runConfig{sp: specByName("cold-read"), seed: 1, scale: 1}, n: 100, vals: newValues(1)}
	e.m = newModel(e.n, 1)
	w := e.newWorker(0, nil, true)
	val := make([]byte, valLen)
	e.vals.fill(val, 5*keyStride, e.m.issue(5*keyStride, 0))
	if !w.checkValue(5*keyStride, val) {
		t.Fatal("the value just issued is rejected")
	}
	if w.checkValue(6*keyStride, val) {
		t.Error("a value of another key is accepted")
	}
	e.m.issue(5*keyStride, 0)
	if w.checkValue(5*keyStride, val) {
		t.Error("a stale version is accepted on an owned key")
	}
	// Scans: out of order, past the end bound, more than the limit.
	kv := func(i uint64) unikv.KV {
		v := make([]byte, valLen)
		if e.m.issued[i].Load() == 0 {
			e.m.issue(i*keyStride, 0)
		}
		e.vals.fill(v, i*keyStride, e.m.issued[i].Load())
		return unikv.KV{Key: appendKey(nil, i*keyStride), Value: v}
	}
	scan := op{kind: opScan, num: 10 * keyStride, end: 13 * keyStride}
	w.key = appendKey(w.key[:0], scan.num)
	if !w.checkScan(scan, []unikv.KV{kv(10), kv(11), kv(12)}) {
		t.Error("a correct bounded scan is rejected")
	}
	if w.checkScan(scan, []unikv.KV{kv(10), kv(12), kv(11)}) {
		t.Error("a scan out of order is accepted")
	}
	if w.checkScan(scan, []unikv.KV{kv(10), kv(11), kv(12), kv(13)}) {
		t.Error("a scan past its end bound is accepted")
	}
	if w.checkScan(op{kind: opScan, num: scan.num, limit: 2}, []unikv.KV{kv(10), kv(11), kv(12)}) {
		t.Error("a scan over its limit is accepted")
	}
	if w.checkScan(op{kind: opScan, num: scan.num, limit: 3}, []unikv.KV{kv(10), kv(11)}) {
		t.Error("a scan that stops short of its limit with keys left is accepted")
	}
	var stdout bytes.Buffer
	res := &result{workload: "x", correct: false, attempted: 1, failed: 1}
	if err := res.print(&stdout); err != nil || !bytes.Contains(stdout.Bytes(), []byte(`"correct":false`)) {
		t.Errorf("result line: %v %s", err, stdout.String())
	}
	if code := run([]string{"--workload", "nope"}, io.Discard, io.Discard); code == 0 {
		t.Error("an unknown workload exits 0")
	}
}
