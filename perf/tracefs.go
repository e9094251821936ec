package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unikv/internal/vfs"
)

// File classes the tracing FS attributes I/O to, from the engine's file
// naming (DESIGN.md: p<N>/<num>.wal|sst|ckpt, vlog/vlog-<num>.log,
// MANIFEST-<gen>, CURRENT).
const (
	classWAL = iota
	classSST
	classVlog
	classManifest
	classCkpt
	classOther
	numClasses
)

var classNames = [numClasses]string{"wal", "sst", "vlog", "manifest", "ckpt", "other"}

func classOf(name string) int {
	base := filepath.Base(name)
	switch {
	case strings.HasSuffix(base, ".wal"):
		return classWAL
	case strings.HasSuffix(base, ".sst"):
		return classSST
	case strings.HasSuffix(base, ".log"):
		return classVlog
	case strings.HasPrefix(base, "MANIFEST-"), strings.HasPrefix(base, "CURRENT"):
		return classManifest
	case strings.HasSuffix(base, ".ckpt"), strings.HasSuffix(base, ".ckpt.tmp"):
		return classCkpt
	}
	return classOther
}

const (
	ioRead = iota
	ioWrite
	ioSync
	numIO
)

var ioNames = [numIO]string{"read", "write", "sync"}

// spanNames[class][io] is the child span name "vfs.<class>.<io>".
var spanNames = func() (names [numClasses][numIO]string) {
	for c, class := range classNames {
		for k, io := range ioNames {
			names[c][k] = "vfs." + class + "." + io
		}
	}
	return names
}()

// classIO totals one file class. Bytes and calls are counted on every call
// (they must add up to vfs.Counters); busy time only while tracing is on.
type classIO struct {
	bytes  [numIO]int64
	calls  [numIO]int64
	busyNs [numIO]int64
}

type childSpan struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Bytes   int    `json:"bytes"`
}

// rootSpan is one kept operation: the op's own span and the vfs calls made
// on its behalf, all sharing the op id.
type rootSpan struct {
	ID              int64       `json:"id"`
	Name            string      `json:"name"`
	StartNs         int64       `json:"start_ns"`
	DurNs           int64       `json:"dur_ns"`
	SelfNs          int64       `json:"self_ns"`
	Children        []childSpan `json:"children"`
	ChildrenDropped int         `json:"children_dropped,omitempty"`
}

// kindAgg totals the root spans of one op kind over the traced blocks.
type kindAgg struct {
	ops     int64
	spanNs  int64
	childNs int64 // part of the spans covered by vfs child spans
	maintNs int64 // spans that wrote an sst or vlog file: maintenance ran inside the op
	stallNs int64 // spans longer than stallThreshold
}

const (
	stallThreshold  = time.Millisecond
	keepEvery       = 1024 // seeded 1-in-keepEvery sample of full spans
	maxKeptSpans    = 4096
	maxKeptChildren = 256
)

// tracer collects spans from the harness (root spans around each call into
// the store) and from the tracing FS below the engine (child spans). The
// traced run has one closed-loop client and an inline executor, so every
// vfs call falls inside exactly one root span; a mutex orders the two
// goroutines involved when the store sits behind a server.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	prefix string      // "op." or "client."
	on     atomic.Bool // tracing on: time vfs calls and record spans
	sample rng

	class [numClasses]classIO
	kinds [numKinds]kindAgg

	active   bool
	curKind  opKind
	curStart time.Time
	curID    int64
	kids     []childSpan
	covered  int64 // ns of the current root covered by children so far
	lastEnd  int64
	maint    bool

	kept        []rootSpan
	keptDropped int

	// Wall time of the traced blocks, and ops per second of every block by
	// whether it was traced, for overhead_share.
	blockStart time.Time
	blockOps   int64
	tracedNs   int64
	rates      [2][]float64
}

func newTracer(prefix string, seed uint64) *tracer {
	return &tracer{epoch: time.Now(), prefix: prefix, sample: rng(seed ^ 0x7370616e73)}
}

// switchBlock closes the current block of ops and starts one with tracing
// on or off. Alternating short blocks lets one pass over one store measure
// both rates, so their ratio is the tracing overhead and not store drift;
// comparing the median block of each kind keeps the few blocks that hold a
// merge or a GC from deciding it.
func (t *tracer) switchBlock(on bool, opsDone int64) {
	now := time.Now()
	t.mu.Lock()
	if ops := opsDone - t.blockOps; ops > 0 {
		d := now.Sub(t.blockStart)
		i := 0
		if t.on.Load() {
			i = 1
			t.tracedNs += d.Nanoseconds()
		}
		t.rates[i] = append(t.rates[i], float64(ops)/d.Seconds())
	}
	t.blockStart, t.blockOps = now, opsDone
	t.on.Store(on)
	t.mu.Unlock()
}

// classes returns a copy of the per-class totals.
func (t *tracer) classes() [numClasses]classIO {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.class
}

// begin opens the root span of one op.
func (t *tracer) begin(k opKind, id int64, start time.Time) {
	t.mu.Lock()
	t.active, t.curKind, t.curID, t.curStart = true, k, id, start
	t.kids, t.covered, t.lastEnd, t.maint = t.kids[:0], 0, 0, false
	t.mu.Unlock()
}

// end closes the root span opened by begin.
func (t *tracer) end(end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.active = false
	dur := end.Sub(t.curStart).Nanoseconds()
	a := &t.kinds[t.curKind]
	a.ops++
	a.spanNs += dur
	a.childNs += t.covered
	if t.maint {
		a.maintNs += dur
	}
	if dur > stallThreshold.Nanoseconds() {
		a.stallNs += dur
	}
	if dur <= stallThreshold.Nanoseconds() && t.sample.next()%keepEvery != 0 {
		return
	}
	if len(t.kept) >= maxKeptSpans {
		t.keptDropped++
		return
	}
	s := rootSpan{
		ID:      t.curID,
		Name:    t.prefix + kindNames[t.curKind],
		StartNs: t.curStart.Sub(t.epoch).Nanoseconds(),
		DurNs:   dur,
		SelfNs:  dur - t.covered,
	}
	kids := t.kids
	if len(kids) > maxKeptChildren {
		s.ChildrenDropped = len(kids) - maxKeptChildren
		kids = kids[:maxKeptChildren]
	}
	s.Children = append([]childSpan(nil), kids...)
	t.kept = append(t.kept, s)
}

// start is called before a vfs call; it reports whether to time it.
func (t *tracer) start() (time.Time, bool) {
	if !t.on.Load() {
		return time.Time{}, false
	}
	return time.Now(), true
}

// finish accounts one vfs call of n bytes on a file of class c.
func (t *tracer) finish(c, kind, n int, start time.Time, timed bool) {
	var end time.Time
	if timed {
		end = time.Now()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ci := &t.class[c]
	ci.bytes[kind] += int64(n)
	ci.calls[kind]++
	if !timed {
		return
	}
	dur := end.Sub(start).Nanoseconds()
	ci.busyNs[kind] += dur
	if !t.active {
		return
	}
	if kind == ioWrite && (c == classSST || c == classVlog) {
		t.maint = true
	}
	// Children arrive in start order (one executor), so the union of their
	// intervals is a running merge against the last end seen.
	s, e := start.Sub(t.curStart).Nanoseconds(), end.Sub(t.curStart).Nanoseconds()
	if s < t.lastEnd {
		s = t.lastEnd
	}
	if e > s {
		t.covered += e - s
		t.lastEnd = e
	}
	t.kids = append(t.kids, childSpan{
		Name:    spanNames[c][kind],
		StartNs: start.Sub(t.epoch).Nanoseconds(),
		DurNs:   dur,
		Bytes:   n,
	})
}

// writeFile dumps the kept spans and the aggregates as JSON.
func (t *tracer) writeFile(path, workload string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type kindOut struct {
		Ops, SpanNs, ChildNs, MaintNs, StallNs int64
	}
	type classOut struct {
		Bytes, Calls, BusyNs map[string]int64
	}
	out := struct {
		Workload    string              `json:"workload"`
		Seed        uint64              `json:"seed"`
		Kinds       map[string]kindOut  `json:"kinds"`
		Classes     map[string]classOut `json:"classes"`
		KeptDropped int                 `json:"kept_dropped"`
		Spans       []rootSpan          `json:"spans"`
	}{Workload: workload, Seed: seed, Kinds: map[string]kindOut{}, Classes: map[string]classOut{}, KeptDropped: t.keptDropped, Spans: t.kept}
	for k, a := range t.kinds {
		out.Kinds[t.prefix+kindNames[k]] = kindOut{a.ops, a.spanNs, a.childNs, a.maintNs, a.stallNs}
	}
	for c, ci := range t.class {
		co := classOut{map[string]int64{}, map[string]int64{}, map[string]int64{}}
		for k, name := range ioNames {
			co.Bytes[name], co.Calls[name], co.BusyNs[name] = ci.bytes[k], ci.calls[k], ci.busyNs[k]
		}
		out.Classes[classNames[c]] = co
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// traceFS wraps a vfs.FS, reporting every data-moving call to a tracer.
// Everything else is forwarded untouched, including the optional Linker and
// Crasher capabilities of the wrapped FS.
type traceFS struct {
	vfs.FS
	t *tracer
}

func newTraceFS(inner vfs.FS, t *tracer) *traceFS { return &traceFS{FS: inner, t: t} }

func (fs *traceFS) Create(name string) (vfs.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &traceFile{File: f, t: fs.t, class: classOf(name)}, nil
}

func (fs *traceFS) Open(name string) (vfs.File, error) {
	f, err := fs.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &traceFile{File: f, t: fs.t, class: classOf(name)}, nil
}

func (fs *traceFS) ReadFile(name string) ([]byte, error) {
	start, timed := fs.t.start()
	data, err := fs.FS.ReadFile(name)
	if err == nil {
		fs.t.finish(classOf(name), ioRead, len(data), start, timed)
	}
	return data, err
}

// WriteFile is one write and one sync in vfs.Counters, so it is one of each
// here.
func (fs *traceFS) WriteFile(name string, data []byte) error {
	start, timed := fs.t.start()
	err := fs.FS.WriteFile(name, data)
	if err == nil {
		fs.t.finish(classOf(name), ioWrite, len(data), start, timed)
		fs.t.finish(classOf(name), ioSync, 0, start, false)
	}
	return err
}

// Link implements vfs.Linker when the wrapped FS does.
func (fs *traceFS) Link(oldname, newname string) error {
	if l, ok := fs.FS.(vfs.Linker); ok {
		return l.Link(oldname, newname)
	}
	return errors.ErrUnsupported
}

// Crash implements vfs.Crasher when the wrapped FS does.
func (fs *traceFS) Crash() {
	if c, ok := fs.FS.(vfs.Crasher); ok {
		c.Crash()
	}
}

type traceFile struct {
	vfs.File
	t     *tracer
	class int
}

func (f *traceFile) Write(p []byte) (int, error) {
	start, timed := f.t.start()
	n, err := f.File.Write(p)
	f.t.finish(f.class, ioWrite, n, start, timed)
	return n, err
}

func (f *traceFile) ReadAt(p []byte, off int64) (int, error) {
	start, timed := f.t.start()
	n, err := f.File.ReadAt(p, off)
	if n > 0 || err == nil { // a read at end of file moves nothing and vfs.Counters skips it
		f.t.finish(f.class, ioRead, n, start, timed)
	}
	return n, err
}

func (f *traceFile) Sync() error {
	start, timed := f.t.start()
	err := f.File.Sync()
	f.t.finish(f.class, ioSync, 0, start, timed)
	return err
}
