package vfs

import (
	"errors"
	"fmt"
	"io"
	"path"
	"path/filepath"
	"sync"
)

// ErrInjected is returned by a FailFS at its armed failure points. In
// sticky mode everything after the first failure behaves as if the process
// had crashed: writes fail and nothing further reaches "disk". In
// transient mode a bounded number of operations fail and then the file
// system recovers — the shape of an EINTR/ENOSPC-class hiccup.
var ErrInjected = errors.New("vfs: injected failure")

// OpKind is a bitmask of FailFS operation kinds used to target injection.
type OpKind uint16

const (
	OpCreate OpKind = 1 << iota
	OpWrite
	OpSync
	OpSyncDir
	OpRemove
	OpRename
	OpWriteFile
	OpOpen
	OpReadAt
	OpReadFile
)

const (
	// OpMutating covers every operation that changes disk state — the
	// historical Arm(n) target set.
	OpMutating = OpCreate | OpWrite | OpSync | OpSyncDir | OpRemove | OpRename | OpWriteFile
	// OpReads covers the read path (table/log/WAL reads and file opens).
	OpReads = OpOpen | OpReadAt | OpReadFile
	// OpAll covers everything FailFS can intercept.
	OpAll = OpMutating | OpReads
)

// String names the kind set for test failure messages.
func (k OpKind) String() string {
	names := []struct {
		bit  OpKind
		name string
	}{
		{OpCreate, "create"}, {OpWrite, "write"}, {OpSync, "sync"},
		{OpSyncDir, "syncdir"}, {OpRemove, "remove"}, {OpRename, "rename"},
		{OpWriteFile, "writefile"}, {OpOpen, "open"}, {OpReadAt, "readat"},
		{OpReadFile, "readfile"},
	}
	out := ""
	for _, n := range names {
		if k&n.bit != 0 {
			if out != "" {
				out += "|"
			}
			out += n.name
		}
	}
	if out == "" {
		return "none"
	}
	return out
}

// FailPlan describes one injection campaign. Operations that match Kinds
// and Pattern are counted; the first Skip matches pass through, then Fail
// of them fail with Err. Fail < 0 is sticky: every match from Skip on
// fails (a crashed disk). Fail = k > 0 is transient: k matches fail, then
// the file system recovers (a retryable hiccup). Fail = 0 injects nothing
// and just counts matches (used to size sweep campaigns).
type FailPlan struct {
	// Skip is the number of matching operations allowed before injection.
	Skip int64
	// Fail is how many matching operations fail after Skip; < 0 = all.
	Fail int64
	// Kinds selects the targeted operations; 0 means OpMutating (the
	// historical Arm behavior).
	Kinds OpKind
	// Pattern, when non-empty, restricts matching to files whose base name
	// matches this path.Match pattern (e.g. "*.sst"). Directory operations
	// (SyncDir) match against the directory's base name.
	Pattern string
	// Err overrides the injected error; nil means ErrInjected.
	Err error
	// TornBytes > 0 makes a failing Write land that many bytes of its
	// buffer (always fewer than the whole buffer) before reporting the
	// error — the short write a real file system can leave behind when it
	// fails mid-call. 0 keeps failed writes all-or-nothing.
	TornBytes int
}

// CorruptPlan describes deterministic read-time corruption: reads of
// matching files observe flipped bytes (and optionally a truncated tail)
// while the bytes on "disk" stay intact. The corruption sweeps use it to
// model latent media errors — silent bit rot the engine only notices when
// a read or scrub lands on the damaged range — without mutating state, so
// one seeded directory serves an entire campaign of corruption points.
type CorruptPlan struct {
	// Pattern restricts corruption to files whose base name matches this
	// path.Match pattern (e.g. "*.sst"); empty matches every file.
	Pattern string
	// Start is the offset of the first corrupted byte within each
	// matching file.
	Start int64
	// Stride is the distance between corrupted bytes; <= 0 corrupts only
	// the byte at Start.
	Stride int64
	// Count is how many bytes are flipped per file; <= 0 flips nothing
	// (a truncation-only plan).
	Count int
	// TruncateAt, when > 0, makes reads behave as if matching files ended
	// at this offset (a torn tail), in addition to any byte flips.
	TruncateAt int64
}

// FailFS wraps another FS and injects failures according to an armed
// FailPlan, and/or read-time corruption according to an armed CorruptPlan.
// The crash tests use sticky plans to stop the engine mid-flush / mid-GC
// deterministically, then reopen the underlying FS and check recovery; the
// fault sweeps additionally use transient plans and read-path targeting;
// the corruption sweeps arm CorruptPlans to model bit rot.
type FailFS struct {
	inner FS

	mu       sync.Mutex
	armed    bool
	plan     FailPlan
	matched  int64           // matching ops observed since the last arm
	injected int64           // ops failed since the last arm
	locked   map[string]bool // dirs locked through this wrapper

	corruptArmed bool
	corrupt      CorruptPlan
	corrupted    int64 // reads that observed corrupt bytes since last arm
}

// NewFail wraps inner; the file system operates normally until Arm or
// ArmPlan is called.
func NewFail(inner FS) *FailFS {
	return &FailFS{inner: inner, locked: make(map[string]bool)}
}

// Arm allows n more mutating operations (writes, syncs, creates, renames,
// removes), then fails everything mutating — the sticky crash model.
// Equivalent to ArmPlan(FailPlan{Skip: n, Fail: -1}).
func (fs *FailFS) Arm(n int64) {
	fs.ArmPlan(FailPlan{Skip: n, Fail: -1})
}

// ArmPlan installs plan and resets the matched/injected counters.
func (fs *FailFS) ArmPlan(plan FailPlan) {
	if plan.Kinds == 0 {
		plan.Kinds = OpMutating
	}
	fs.mu.Lock()
	fs.armed = true
	fs.plan = plan
	fs.matched = 0
	fs.injected = 0
	fs.mu.Unlock()
}

// Disarm restores normal operation. Counters keep their values until the
// next arm, so a sweep can read them after stopping the campaign.
func (fs *FailFS) Disarm() {
	fs.mu.Lock()
	fs.armed = false
	fs.mu.Unlock()
}

// Failed reports whether at least one failure has been injected since the
// last arm.
func (fs *FailFS) Failed() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.injected > 0
}

// MatchedOps returns how many operations matched the armed plan's Kinds
// and Pattern since the last arm (failed or not). A counting pass with
// Fail = 0 uses this to size a sweep.
func (fs *FailFS) MatchedOps() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.matched
}

// InjectedOps returns how many operations have failed since the last arm.
func (fs *FailFS) InjectedOps() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.injected
}

// ArmCorrupt installs plan: subsequent reads of matching files observe
// the flipped bytes (and truncated tail) it describes. The underlying
// bytes are untouched — DisarmCorrupt restores clean reads.
func (fs *FailFS) ArmCorrupt(plan CorruptPlan) {
	fs.mu.Lock()
	fs.corruptArmed = true
	fs.corrupt = plan
	fs.corrupted = 0
	fs.mu.Unlock()
}

// DisarmCorrupt restores clean reads. The CorruptedReads counter keeps
// its value until the next ArmCorrupt.
func (fs *FailFS) DisarmCorrupt() {
	fs.mu.Lock()
	fs.corruptArmed = false
	fs.mu.Unlock()
}

// CorruptedReads returns how many reads observed corrupt bytes since the
// last ArmCorrupt — zero means the armed corruption sat in a range no
// read touched (a sweep uses this to tell "not detected" from "not read").
func (fs *FailFS) CorruptedReads() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.corrupted
}

// corruptRange applies the armed corruption to p, which was read from
// name at offset off with n valid bytes. It returns the (possibly
// reduced) length and whether a truncation clamp makes the read end
// early.
func (fs *FailFS) corruptRange(name string, p []byte, off int64, n int) (int, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.corruptArmed || n <= 0 {
		return n, false
	}
	cp := fs.corrupt
	if cp.Pattern != "" {
		if ok, err := path.Match(cp.Pattern, filepath.Base(name)); err != nil || !ok {
			return n, false
		}
	}
	touched := false
	truncated := false
	if cp.TruncateAt > 0 && off+int64(n) > cp.TruncateAt {
		n = int(cp.TruncateAt - off)
		if n < 0 {
			n = 0
		}
		touched = true
		truncated = true
	}
	stride := cp.Stride
	if stride <= 0 {
		stride = 1
	}
	for k := 0; k < cp.Count; k++ {
		t := cp.Start + int64(k)*stride
		if t >= off && t < off+int64(n) {
			p[t-off] ^= 0xFF
			touched = true
		}
		if cp.Stride <= 0 {
			break
		}
	}
	if touched {
		fs.corrupted++
	}
	return n, truncated
}

// corruptSize clamps a reported file size to the armed truncation point.
func (fs *FailFS) corruptSize(name string, size int64) int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.corruptArmed || fs.corrupt.TruncateAt <= 0 || size <= fs.corrupt.TruncateAt {
		return size
	}
	cp := fs.corrupt
	if cp.Pattern != "" {
		if ok, err := path.Match(cp.Pattern, filepath.Base(name)); err != nil || !ok {
			return size
		}
	}
	return cp.TruncateAt
}

// step runs one operation through the armed plan, returning the injected
// error when the operation falls inside the plan's failure window.
func (fs *FailFS) step(kind OpKind, name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.armed || fs.plan.Kinds&kind == 0 {
		return nil
	}
	if fs.plan.Pattern != "" {
		if ok, err := path.Match(fs.plan.Pattern, filepath.Base(name)); err != nil || !ok {
			return nil
		}
	}
	idx := fs.matched
	fs.matched++
	if idx < fs.plan.Skip {
		return nil
	}
	if fs.plan.Fail < 0 || idx-fs.plan.Skip < fs.plan.Fail {
		fs.injected++
		if fs.plan.Err != nil {
			return fs.plan.Err
		}
		return ErrInjected
	}
	return nil
}

func (fs *FailFS) Counters() *Counters { return fs.inner.Counters() }

func (fs *FailFS) Create(name string) (File, error) {
	if err := fs.step(OpCreate, name); err != nil {
		return nil, err
	}
	f, err := fs.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &failFile{f: f, fs: fs, name: name}, nil
}

func (fs *FailFS) Open(name string) (File, error) {
	if err := fs.step(OpOpen, name); err != nil {
		return nil, err
	}
	f, err := fs.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &failFile{f: f, fs: fs, name: name}, nil
}

func (fs *FailFS) Remove(name string) error {
	if err := fs.step(OpRemove, name); err != nil {
		return err
	}
	return fs.inner.Remove(name)
}

func (fs *FailFS) Rename(oldname, newname string) error {
	if err := fs.step(OpRename, newname); err != nil {
		return err
	}
	return fs.inner.Rename(oldname, newname)
}

func (fs *FailFS) List(dir string) ([]string, error) { return fs.inner.List(dir) }
func (fs *FailFS) MkdirAll(dir string) error         { return fs.inner.MkdirAll(dir) }
func (fs *FailFS) Exists(name string) bool           { return fs.inner.Exists(name) }

func (fs *FailFS) ReadFile(name string) ([]byte, error) {
	if err := fs.step(OpReadFile, name); err != nil {
		return nil, err
	}
	data, err := fs.inner.ReadFile(name)
	if err == nil {
		n, _ := fs.corruptRange(name, data, 0, len(data))
		data = data[:n]
	}
	return data, err
}

func (fs *FailFS) WriteFile(name string, data []byte) error {
	if err := fs.step(OpWriteFile, name); err != nil {
		return err
	}
	return fs.inner.WriteFile(name, data)
}

// SyncDir is a mutating op for failure-injection purposes: it publishes
// directory entries, so the crash sweeps must be able to kill the engine
// right before one.
func (fs *FailFS) SyncDir(dir string) error {
	if err := fs.step(OpSyncDir, dir); err != nil {
		return err
	}
	return fs.inner.SyncDir(dir)
}

// TryLockDir keeps its own lock table instead of forwarding to the inner
// FS: a FailFS models one process, and the crash tests "kill" it by
// abandoning the handle and reopening through the inner FS (or a fresh
// wrapper) — the dead process's locks must not survive it, exactly like
// flock. Two opens through the same wrapper still conflict.
func (fs *FailFS) TryLockDir(dir string) (DirLock, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.locked[dir] {
		return nil, fmt.Errorf("%w: %s", ErrLocked, dir)
	}
	fs.locked[dir] = true
	return &failDirLock{fs: fs, dir: dir}, nil
}

// DropLocks implements LockDropper: it releases the locks held through this
// wrapper and, when the inner FS supports it, those held directly on it.
func (fs *FailFS) DropLocks() {
	fs.mu.Lock()
	fs.locked = make(map[string]bool)
	fs.mu.Unlock()
	if ld, ok := fs.inner.(LockDropper); ok {
		ld.DropLocks()
	}
}

type failDirLock struct {
	fs       *FailFS
	dir      string
	released bool
}

func (l *failDirLock) Release() error {
	l.fs.mu.Lock()
	defer l.fs.mu.Unlock()
	if !l.released {
		delete(l.fs.locked, l.dir)
		l.released = true
	}
	return nil
}

type failFile struct {
	f    File
	fs   *FailFS
	name string
}

func (f *failFile) Write(p []byte) (int, error) {
	if err := f.fs.step(OpWrite, f.name); err != nil {
		f.fs.mu.Lock()
		torn := min(f.fs.plan.TornBytes, len(p)-1)
		f.fs.mu.Unlock()
		if torn <= 0 {
			return 0, err
		}
		n, _ := f.f.Write(p[:torn])
		return n, err
	}
	return f.f.Write(p)
}

func (f *failFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.fs.step(OpReadAt, f.name); err != nil {
		return 0, err
	}
	n, err := f.f.ReadAt(p, off)
	n, truncated := f.fs.corruptRange(f.name, p, off, n)
	if truncated && err == nil {
		err = io.EOF
	}
	return n, err
}

func (f *failFile) Close() error { return f.f.Close() }

func (f *failFile) Sync() error {
	if err := f.fs.step(OpSync, f.name); err != nil {
		return err
	}
	return f.f.Sync()
}

func (f *failFile) Size() (int64, error) {
	size, err := f.f.Size()
	if err == nil {
		size = f.fs.corruptSize(f.name, size)
	}
	return size, err
}
