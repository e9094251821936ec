package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"unikv"
	"unikv/internal/server"
	"unikv/internal/vfs"
	"unikv/pkg/client"
)

// spec is one named workload. Every engine option other than the executor
// stays at its default; workloads differ in data, mix and client count only.
type spec struct {
	name      string
	d1        bool // starts from dataset D1; otherwise from an empty store
	clients   int
	bgWorkers int
	net       bool // through internal/server and pkg/client on loopback TCP
	zipfian   bool // keys drawn zipfian(0.99); otherwise uniform
	// Mix in shares of 100; the remainder inserts new keys.
	getPct, putPct, scanPct int
	// opsPerSec is the frozen size of the measured phase: ops issued per
	// requested second, all clients together. Calibrated once, at the commit
	// that added the benchmark, so that --seconds N takes about N seconds on
	// the 2-core reference box; fixed counts (not fixed time) keep the work,
	// and so the counted metrics, identical between two builds.
	// load-update alone runs about 1.7 times the requested length: its GC and
	// split cycles need the volume, and it has no D1 to build first.
	opsPerSec int
	// floor is the maintenance a full-size measured phase must contain for
	// the workload to exercise what it is named for. A run that falls short
	// is reported wrong, like a D1 that misses a tier.
	floor cycles
}

// cycles counts completed maintenance jobs. compactions are merges into the
// SortedStore and scan merges within the UnsortedStore together: which of
// the two the engine picks is its policy, not the workload's.
type cycles struct{ flushes, compactions, gcs, splits int64 }

func cyclesBetween(before, after unikv.Metrics) cycles {
	return cycles{after.Flushes - before.Flushes, after.Merges - before.Merges + after.ScanMerges - before.ScanMerges,
		after.GCs - before.GCs, after.Splits - before.Splits}
}

func (c cycles) reaches(floor cycles) bool {
	return c.flushes >= floor.flushes && c.compactions >= floor.compactions && c.gcs >= floor.gcs && c.splits >= floor.splits
}

func (c cycles) String() string {
	return fmt.Sprintf("flushes=%d merges+scan_merges=%d gcs=%d splits=%d", c.flushes, c.compactions, c.gcs, c.splits)
}

var specs = []spec{
	{name: "load-update", clients: 1, zipfian: true, putPct: 100, opsPerSec: 175000,
		floor: cycles{flushes: 300, compactions: 40, gcs: 2, splits: 2}},
	{name: "hot-read-update", d1: true, clients: 2, bgWorkers: 1, zipfian: true, getPct: 95, putPct: 5, opsPerSec: 310000,
		floor: cycles{flushes: 20, compactions: 2}},
	{name: "cold-read", d1: true, clients: 2, getPct: 100, opsPerSec: 420000},
	{name: "scan-insert", d1: true, clients: 2, bgWorkers: 1, zipfian: true, scanPct: 70, opsPerSec: 15000,
		floor: cycles{flushes: 6, compactions: 1}},
	{name: "net-mixed", d1: true, clients: 2, bgWorkers: 1, net: true, getPct: 50, putPct: 50, opsPerSec: 40000,
		floor: cycles{flushes: 30, compactions: 4}},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

const (
	// Dataset D1: loaded in random order, then overwritten zipfian without a
	// forced Compact, so hot keys stay in the UnsortedStore behind the hash
	// index and cold keys sit in the SortedStore and the value logs.
	d1Keys    = 300000
	d1Updates = d1Keys / 5
	// load-update inserts during the first 1/loadShare of its ops and
	// overwrites from then on: enough overwrites per key for value-log GC to
	// come round several times, enough keys for partitions to split.
	loadShare = 8

	// floorSeconds is the run length from which a spec's floor is demanded.
	floorSeconds = 10
	// setupRepeats is how often a workload without D1 sets up (a few tens of
	// milliseconds each time); setup_s is the median.
	setupRepeats = 5
	// auditChunk is the number of loaded keys one audit scan covers.
	auditChunk = 100

	sampleEvery = 8 // untraced runs time every 8th get per client
	// A latency percentile is the median, over the windows of all clients,
	// of each window's percentile: a burst from outside the program (a
	// noisy neighbour, a collector cycle) spoils one window, not the metric.
	latencyWindows = 8
	traceBlock     = 1024 // traced runs alternate traced and untraced blocks of this many ops
)

type runConfig struct {
	sp      *spec
	seed    uint64
	seconds float64
	scale   float64 // shrinks datasets and op counts (tests); 1 for real runs
	trace   bool
	osFS    bool
	outDir  string
}

// store is the surface the workloads drive: *unikv.DB embedded, or
// *client.Client over the wire.
type store interface {
	Get(key []byte) ([]byte, error)
	Put(key, value []byte) error
	Scan(start, end []byte, limit int) ([]unikv.KV, error)
}

// env is the state of one benchmark run.
type env struct {
	cfg   runConfig
	raw   vfs.FS // the file system itself
	fs    vfs.FS // what the engine is opened on: raw, or the tracing wrapper
	dir   string
	n     uint64 // loaded keys
	m     *model
	vals  *values
	zipf  *zipfian
	tr    *tracer
	notes []string

	// Traced runs: per-class I/O around the measured phase, and the
	// embedded replay of a wire workload.
	classBefore, classAfter [numClasses]classIO
	embedded                *phase

	attempted, failed int64
}

func (e *env) notef(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

// worker is one closed-loop client: it issues its next request only after
// the previous one has been answered and checked.
type worker struct {
	e     *env
	id    int
	st    store
	tr    *tracer // set on the workers of a traced measured phase only
	exact bool    // no other writer is active: every key must read back at its issued version
	// everyGet times every get instead of every sampleEvery-th: the replay
	// a traced wire run is compared with, which times every op too.
	everyGet bool
	key, end []byte
	val      []byte

	ops      [numKinds]int64
	hists    [numKinds][latencyWindows]hist // by the window of the run the op fell into
	userOut  int64                          // user bytes returned by gets and scans
	userIn   int64                          // user bytes written by puts
	failures int64
}

func (e *env) newWorker(id int, st store, exact bool) *worker {
	return &worker{e: e, id: id, st: st, exact: exact,
		key: make([]byte, 0, keyLen), end: make([]byte, 0, keyLen), val: make([]byte, valLen)}
}

// timed reports whether an untraced worker times its j-th op: every put and
// scan, and every sampleEvery-th get (a get can take well under a
// microsecond, and two clock reads must stay a small part of it).
func (w *worker) timed(k opKind, j int) bool {
	return k != opGet || w.everyGet || j%sampleEvery == 0
}

// run issues n ops from g. Traced, every op of every other block is timed,
// with a root span each.
func (w *worker) run(g *opGen, n int, marks func(done int)) {
	tr := w.tr
	for j := 0; j < n; j++ {
		o := g.next()
		timed := w.timed(o.kind, j)
		if tr != nil {
			if j%traceBlock == 0 {
				tr.switchBlock(j/traceBlock%2 == 0, int64(j))
			}
			timed = tr.on.Load()
		}
		w.do(o, timed, int64(j), j*latencyWindows/n)
		if marks != nil {
			marks(j + 1)
		}
	}
	if tr != nil {
		tr.switchBlock(false, int64(n))
	}
}

// do issues one op, checks the answer, and returns the number of pairs a
// scan brought back.
func (w *worker) do(o op, timed bool, id int64, window int) int {
	w.key = appendKey(w.key[:0], o.num)
	var end []byte
	switch {
	case o.kind == opPut:
		w.e.vals.fill(w.val, o.num, w.e.m.issue(o.num, w.id))
	case o.end != 0:
		w.end = appendKey(w.end[:0], o.end)
		end = w.end
	}
	tr := w.tr
	var start time.Time
	if timed {
		start = time.Now()
		if tr != nil {
			tr.begin(o.kind, id, start)
		}
	}
	var (
		val []byte
		kvs []unikv.KV
		err error
	)
	switch o.kind {
	case opGet:
		val, err = w.st.Get(w.key)
	case opPut:
		err = w.st.Put(w.key, w.val)
	case opScan:
		kvs, err = w.st.Scan(w.key, end, o.limit)
	}
	if timed {
		stop := time.Now()
		if tr != nil {
			tr.end(stop)
		}
		w.hists[o.kind][window].add(stop.Sub(start).Nanoseconds())
	}
	w.ops[o.kind]++
	ok := err == nil
	switch o.kind {
	case opGet:
		ok = ok && w.checkValue(o.num, val)
		w.userOut += userBytes
	case opPut:
		w.userIn += userBytes
	case opScan:
		ok = ok && w.checkScan(o, kvs)
		w.userOut += int64(len(kvs)) * userBytes
	}
	if !ok {
		w.failures++
	}
	return len(kvs)
}

// issue returns the version the next put of key num carries.
func (m *model) issue(num uint64, client int) uint32 {
	if num%keyStride != 0 {
		m.inserted[client] = append(m.inserted[client], num)
		return 1
	}
	return m.issued[num/keyStride].Add(1)
}

// checkValue verifies a value read for key num: intact, about that key, and
// at a version the model allows.
func (w *worker) checkValue(num uint64, val []byte) bool {
	gotNum, version, ok := decodeValue(val)
	if !ok || gotNum != num {
		return false
	}
	if num%keyStride != 0 {
		return version == 1
	}
	i := num / keyStride
	issued := w.e.m.issued[i].Load() // after the read: a foreign key may have moved on, never back
	if w.exact || int(i%uint64(w.e.clients())) == w.id {
		return version == issued
	}
	return version >= 1 && version <= issued
}

// checkScan verifies order, bounds, limit and every returned value.
func (w *worker) checkScan(o op, kvs []unikv.KV) bool {
	if o.limit > 0 {
		if len(kvs) > o.limit {
			return false
		}
		// Loaded keys alone guarantee this many results from the start key on.
		if want := int(w.e.n - o.num/keyStride); len(kvs) < o.limit && len(kvs) < want {
			return false
		}
	}
	prev := w.key
	for i, kv := range kvs {
		if c := bytes.Compare(kv.Key, prev); c < 0 || (c == 0 && i > 0) {
			return false
		}
		num, ok := parseKey(kv.Key)
		if !ok || (o.end != 0 && num >= o.end) {
			return false
		}
		if !w.checkValue(num, kv.Value) {
			return false
		}
		prev = kv.Key
	}
	return true
}

// phase is the outcome of one stretch of ops: the measured mix, the load
// that builds D1, or an audit.
type phase struct {
	ops      [numKinds]int64
	hists    [numKinds][]*hist // one per client and window
	wall     time.Duration
	userOut  int64
	userIn   int64
	io       vfs.CounterSnapshot // FS traffic during the phase
	mallocs  uint64
	failures int64
}

func (p *phase) total() int64 { return p.ops[opGet] + p.ops[opPut] + p.ops[opScan] }

// runPhase runs body once per worker, side by side, to completion, and
// brackets them with counter snapshots.
func (e *env) runPhase(db *unikv.DB, ws []*worker, body func(*worker)) *phase {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	io := e.raw.Counters().Snapshot()
	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			body(w)
		}(w)
	}
	wg.Wait()
	p := &phase{wall: time.Since(start)}
	runtime.ReadMemStats(&ms)
	p.mallocs = ms.Mallocs - mallocs
	drain(db)
	p.io = e.raw.Counters().Snapshot().Sub(io)
	for _, w := range ws {
		for k := range w.ops {
			p.ops[k] += w.ops[k]
			for i := range w.hists[k] {
				p.hists[k] = append(p.hists[k], &w.hists[k][i])
			}
		}
		p.userOut += w.userOut
		p.userIn += w.userIn
		p.failures += w.failures
	}
	e.attempted += p.total()
	e.failed += p.failures
	return p
}

// drain waits until the background executor has nothing queued or running,
// so that the I/O of the maintenance a phase's writes set off is counted in
// that phase however the scheduler happened to time it.
func drain(db *unikv.DB) {
	deadline := time.Now().Add(30 * time.Second)
	for idle := 0; idle < 3 && time.Now().Before(deadline); {
		if m := db.Metrics(); m.PendingJobs == 0 && m.ImmutableMemtables == 0 {
			idle++
		} else {
			idle = 0
		}
		time.Sleep(time.Millisecond)
	}
}

// mixGen returns client id's generator for the workload's mix.
func (e *env) mixGen(id int) *opGen {
	sp := e.cfg.sp
	g := &opGen{
		r:      rng(mix64(e.cfg.seed) + uint64(id+1)*0x6a09e667f3bcc909),
		n:      e.n,
		client: uint64(id), clients: uint64(e.clients()),
		getPct: sp.getPct, putPct: sp.putPct, scanPct: sp.scanPct,
		insStep: insertStep(e.n),
	}
	if sp.zipfian {
		g.zipf = e.zipf
	}
	return g
}

// clients is the number of concurrent clients: the spec's, or one when
// tracing (so that every vfs call belongs to exactly one op).
func (e *env) clients() int {
	if e.cfg.trace {
		return 1
	}
	return e.cfg.sp.clients
}

func (e *env) scaled(n int) int {
	s := int(float64(n) * e.cfg.scale)
	if s < 1 {
		s = 1
	}
	return s
}

// buildD1 loads dataset D1 through an inline-executor store and closes it.
func (e *env) buildD1() (*phase, error) {
	db, err := unikv.Open(e.dir, &unikv.Options{FS: e.raw})
	if err != nil {
		return nil, err
	}
	r := rng(mix64(e.cfg.seed ^ 0x6431))
	g := &opGen{r: r, n: e.n, clients: 1, putPct: 100, zipf: e.zipf, load: shuffled(int(e.n), &r)}
	load := e.runPhase(db, []*worker{e.newWorker(0, db, true)}, func(w *worker) {
		w.run(g, int(e.n)+e.scaled(d1Updates), nil)
	})
	return load, db.Close()
}

// setUp makes everything the measured phase starts from: the file system,
// the model and the key distribution, D1 where the workload has one, and
// the open store.
func (e *env) setUp(bgWorkers int) (*unikv.DB, *phase, error) {
	if e.cfg.osFS {
		if err := os.RemoveAll(e.dir); err != nil {
			return nil, nil, err
		}
		e.raw = vfs.NewOS()
	} else {
		e.raw = vfs.NewMem()
	}
	e.fs = e.raw
	e.m = newModel(e.n, e.clients())
	e.zipf = newZipfian(e.n)
	var load *phase
	if e.cfg.sp.d1 {
		var err error
		if load, err = e.buildD1(); err != nil {
			return nil, nil, fmt.Errorf("build D1: %w", err)
		}
	}
	if e.cfg.trace {
		prefix := "op."
		if e.cfg.sp.net {
			prefix = "client."
		}
		e.tr = newTracer(prefix, e.cfg.seed)
		e.fs = newTraceFS(e.raw, e.tr)
	}
	db, err := unikv.Open(e.dir, &unikv.Options{FS: e.fs, BackgroundWorkers: bgWorkers})
	if err != nil {
		return nil, nil, fmt.Errorf("open: %w", err)
	}
	return db, load, nil
}

// audit reads back through db everything the model knows, two clients side
// by side: a get of every key, checked exactly, then scans that walk the
// whole key space auditChunk loaded keys at a time and must bring back the
// model's live keys, all of them and nothing else.
func (e *env) audit(db *unikv.DB) *phase {
	const auditors = 2
	ws := make([]*worker, auditors)
	for a := range ws {
		ws[a] = e.newWorker(a, db, true)
	}
	chunks := (e.n + auditChunk - 1) / auditChunk
	var scanned atomic.Int64
	p := e.runPhase(db, ws, func(w *worker) {
		var keys []uint64
		for i := uint64(w.id); i < e.n; i += auditors {
			if e.m.issued[i].Load() > 0 {
				keys = append(keys, i*keyStride)
			}
		}
		for c, ins := range e.m.inserted {
			if c%auditors == w.id {
				keys = append(keys, ins...)
			}
		}
		total := len(keys) + int(chunks)/auditors + 1
		j := 0
		step := func(o op) int {
			n := w.do(o, w.timed(o.kind, j), int64(j), j*latencyWindows/total)
			j++
			return n
		}
		for _, num := range keys {
			step(op{kind: opGet, num: num})
		}
		for c := uint64(w.id); c < chunks; c += auditors {
			last := (c + 1) * auditChunk
			if last > e.n {
				last = e.n
			}
			scanned.Add(int64(step(op{kind: opScan, num: c * auditChunk * keyStride, end: last * keyStride})))
		}
	})
	e.attempted++
	if live := e.m.liveKeys(); scanned.Load() != live {
		e.failed++
		e.notef("FAIL audit: scans returned %d keys, the model holds %d", scanned.Load(), live)
	}
	return p
}

// add folds into p what the end-to-end metrics take from an audit q: the
// two audits of a run are one sample of what gets and scans cost on the
// store the workload left, twice as long as either and so half as exposed
// to a burst from outside.
func (p *phase) add(q *phase) {
	for k := range p.ops {
		p.ops[k] += q.ops[k]
		p.hists[k] = append(p.hists[k], q.hists[k]...)
	}
	p.wall += q.wall
	p.userOut += q.userOut
	p.io.BytesRead += q.io.BytesRead
}

// fsBytes sums the sizes of all files under dir.
func fsBytes(fs vfs.FS, dir string) int64 {
	names, err := fs.List(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, name := range names {
		path := filepath.Join(dir, name)
		if sub, err := fs.List(path); err == nil && len(sub) > 0 {
			total += fsBytes(fs, path)
			continue
		}
		f, err := fs.Open(path)
		if err != nil {
			continue // an empty directory
		}
		if size, err := f.Size(); err == nil {
			total += size
		}
		f.Close()
	}
	return total
}

// runWorkload performs one complete benchmark run and returns its metrics.
func runWorkload(cfg runConfig) (*result, error) {
	e := &env{cfg: cfg, dir: "db", vals: newValues(cfg.seed)}
	res, err := e.drive()
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		// drive has returned, so nothing refers to the store any more.
		e.raw, e.fs = nil, nil
		runtime.GC()
		e.layerProbes(res)
	}
	res.attempted, res.failed = e.attempted, e.failed
	res.correct = res.correct && e.failed == 0
	res.notes = e.notes
	return res, nil
}

// drive builds the store, runs the workload against it, audits it, and
// fills in every metric that needs the store.
func (e *env) drive() (*result, error) {
	cfg, sp := e.cfg, e.cfg.sp
	if cfg.osFS {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(cfg.outDir, "osfs-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		e.dir = filepath.Join(dir, "db")
	}

	mixOps := int(float64(sp.opsPerSec) * cfg.seconds * cfg.scale)
	if cfg.trace && sp.clients > 1 {
		// One client does the work of several: about the same wall time.
		// load-update has one client and an inline executor as it is, so its
		// traced pass is the very run the end-to-end metrics describe.
		mixOps /= sp.clients
	}
	perWorker := mixOps / e.clients()
	if perWorker < 1 {
		perWorker = 1
	}
	if sp.d1 {
		e.n = uint64(e.scaled(d1Keys))
	} else {
		// load-update: the first ops insert, the rest overwrite.
		e.n = uint64(perWorker/loadShare + 1)
	}
	bg := sp.bgWorkers
	if cfg.trace {
		bg = 0
	}

	// Set-up. D1 takes seconds and is built once; a workload without it
	// sets up several times, and the median is what setup_s reports.
	repeats := setupRepeats
	if sp.d1 {
		repeats = 1
	}
	var (
		db          *unikv.DB
		load        *phase
		srv         *server.Server
		setups      []float64
		closeStores = func() {}
	)
	workers := make([]*worker, e.clients())
	gens := make([]*opGen, e.clients())
	for r := 0; r < repeats; r++ {
		if db != nil {
			if err := db.Close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
		}
		start := time.Now()
		var err error
		if db, load, err = e.setUp(bg); err != nil {
			return nil, err
		}
		// The stores the clients talk to, and the generators that drive them.
		stores := make([]store, e.clients())
		if sp.net {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			srv = server.New(db, server.Options{})
			served := make(chan error, 1)
			go func() { served <- srv.Serve(ln) }()
			var conns []*client.Client
			closeStores = func() {
				for _, c := range conns {
					c.Close()
				}
				srv.Close()
				<-served
			}
			for i := range stores {
				c, err := client.Dial(ln.Addr().String(), &client.Options{PoolSize: 1})
				if err != nil {
					closeStores()
					return nil, err
				}
				conns = append(conns, c)
				stores[i] = c
			}
		} else {
			for i := range stores {
				stores[i] = db
			}
		}
		for i := range workers {
			workers[i] = e.newWorker(i, stores[i], e.clients() == 1)
			workers[i].tr = e.tr
			gens[i] = e.mixGen(i)
		}
		if !sp.d1 {
			gens[0].load = shuffled(int(e.n), &gens[0].r)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	before := db.Metrics()
	structureOK := true
	if sp.d1 && cfg.scale >= 1 {
		// D1 must span both tiers and more than one partition, or the
		// read-side workloads measure something else than they claim.
		structureOK = before.Partitions >= 2 && before.UnsortedTables >= 1 && before.SortedTables >= 1
		if !structureOK {
			e.notef("FAIL D1 structure: partitions=%d unsorted_tables=%d sorted_tables=%d",
				before.Partitions, before.UnsortedTables, before.SortedTables)
		}
	}
	var srvBefore server.Metrics
	if srv != nil {
		srvBefore = srv.Metrics()
	}

	// Measured phase: the workload's mix, and nothing else.
	var marks func(int)
	if cfg.trace && !sp.d1 {
		// Shows whether write amplification has levelled off by the end.
		io0 := e.raw.Counters().Snapshot()
		at := []int{perWorker / 2, perWorker * 3 / 4, perWorker}
		marks = func(done int) {
			if done == at[0] {
				written := e.raw.Counters().Snapshot().Sub(io0).BytesWritten
				e.notef("write_amp after %d ops: %.4f", done, float64(written)/float64(int64(done)*userBytes))
				at = append(at[1:], -1)
			}
		}
	}
	if e.tr != nil {
		e.classBefore = e.tr.classes()
	}
	mix := e.runPhase(db, workers, func(w *worker) { w.run(gens[w.id], perWorker, marks) })
	after := db.Metrics()
	if e.tr != nil {
		e.classAfter = e.tr.classes()
		if sp.net {
			// The same stream, continued against the embedded store: what
			// the wire adds is the difference.
			w := e.newWorker(0, db, true)
			w.everyGet = true
			e.embedded = e.runPhase(db, []*worker{w}, func(w *worker) { w.run(gens[0], perWorker, nil) })
		}
	}
	var srvAfter server.Metrics
	if srv != nil {
		srvAfter = srv.Metrics()
	}
	liveBytes := e.m.liveKeys() * userBytes
	spaceBytes := fsBytes(e.raw, e.dir)

	// Correctness: every key, by get and by scan, before and after a reopen.
	closeStores()
	audit := e.audit(db)
	if err := db.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	reopenStart := time.Now()
	db, err := unikv.Open(e.dir, &unikv.Options{FS: e.fs, BackgroundWorkers: bg})
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	reopen := time.Since(reopenStart)
	audit.add(e.audit(db))
	if err := db.Close(); err != nil {
		return nil, fmt.Errorf("close after reopen: %w", err)
	}

	res := &result{workload: sp.name, trace: cfg.trace, correct: structureOK}
	done := cyclesBetween(before, after)
	e.notef("measured phase: %d ops in %.2f s; flushes=%d merges=%d scan_merges=%d gcs=%d splits=%d; partitions=%d unsorted_tables=%d sorted_tables=%d",
		mix.total(), mix.wall.Seconds(), done.flushes, after.Merges-before.Merges, after.ScanMerges-before.ScanMerges,
		done.gcs, done.splits, after.Partitions, after.UnsortedTables, after.SortedTables)
	if !cfg.trace && cfg.scale >= 1 && cfg.seconds >= floorSeconds && !done.reaches(sp.floor) {
		res.correct = false
		e.notef("FAIL the measured phase holds less maintenance than the workload stands for: want at least %v", sp.floor)
	}
	if cfg.trace {
		e.layerMetrics(res, mix, before, after, srvBefore, srvAfter, reopen)
		path := filepath.Join(cfg.outDir, "trace-"+sp.name+".json")
		if err := e.tr.writeFile(path, sp.name, cfg.seed); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		e.notef("spans written to %s", path)
	} else {
		e.endToEnd(res, median(setups), load, mix, audit, spaceBytes, liveBytes)
	}
	return res, nil
}

func samples(hs []*hist) (n uint64) {
	for _, h := range hs {
		n += h.n
	}
	return n
}

// windowQuantile is the median of the windows' q-quantiles, in nanoseconds.
func windowQuantile(hs []*hist, q float64) float64 {
	var qs []float64
	for _, h := range hs {
		if h.n > 0 {
			qs = append(qs, h.quantile(q))
		}
	}
	return median(qs)
}

// endToEnd fills in what a user of the store sees. The contract behind
// BENCHMARK.json wants every metric on every workload, so a metric whose
// operation the mix does not issue describes the part of the run that
// issues it anyway: puts come from the load that builds D1, gets and scans
// from the audit that closes the run. No traffic is added for it.
func (e *env) endToEnd(res *result, setup float64, load, mix, audit *phase, spaceBytes, liveBytes int64) {
	res.add("setup_s", setup, "s", "")
	res.add("ops_per_s", float64(mix.total())/mix.wall.Seconds(), "1/s", "")
	from := func(k opKind) (*phase, string) {
		switch {
		case mix.ops[k] > 0:
			return mix, ""
		case k == opPut:
			return load, ", D1 load"
		}
		return audit, ", audit"
	}
	for k := opKind(0); k < numKinds; k++ {
		p, where := from(k)
		hs := p.hists[k]
		// The p99s did not repeat within any bound the contract allows;
		// they are the per-layer core.<op>_p99_us of the traced run.
		res.add(kindNames[k]+"_p50_us", windowQuantile(hs, 0.50)/1e3, "us", fmt.Sprintf("n=%d%s", samples(hs), where))
	}
	w, where := from(opPut)
	res.add("write_amp", float64(w.io.BytesWritten)/float64(w.userIn), "x",
		fmt.Sprintf("%d B to the FS / %d user B%s", w.io.BytesWritten, w.userIn, where))
	r, where := mix, ""
	if r.userOut == 0 {
		r, where = audit, ", audit"
	}
	res.add("read_amp", float64(r.io.BytesRead)/float64(r.userOut), "x",
		fmt.Sprintf("%d B from the FS / %d user B%s", r.io.BytesRead, r.userOut, where))
	res.add("space_amp", float64(spaceBytes)/float64(liveBytes), "x", fmt.Sprintf("%d B on the FS / %d live user B", spaceBytes, liveBytes))
	res.add("allocs_per_op", float64(mix.mallocs)/float64(mix.total()), "1/op", "")
}
