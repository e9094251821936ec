// Package vfs provides a minimal file-system abstraction used by every
// storage component in this repository.
//
// Two concerns motivate the indirection instead of calling package os
// directly:
//
//   - I/O accounting: the write/read-amplification experiments (DESIGN.md,
//     tab-io) need the logical bytes moved by the engine, independent of the
//     page cache, so every File counts its traffic into shared Counters.
//   - Failure injection: the crash-consistency tests kill the engine at a
//     chosen write and verify recovery; FailFS implements that determinism.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Counters accumulates logical I/O performed through a FS. All fields are
// manipulated atomically and may be read while the FS is in use.
type Counters struct {
	BytesWritten atomic.Int64
	BytesRead    atomic.Int64
	WriteOps     atomic.Int64
	ReadOps      atomic.Int64
	Syncs        atomic.Int64
	DirSyncs     atomic.Int64
	FilesCreated atomic.Int64
	FilesDeleted atomic.Int64
}

// Snapshot returns a plain-value copy of the counters.
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		BytesWritten: c.BytesWritten.Load(),
		BytesRead:    c.BytesRead.Load(),
		WriteOps:     c.WriteOps.Load(),
		ReadOps:      c.ReadOps.Load(),
		Syncs:        c.Syncs.Load(),
		DirSyncs:     c.DirSyncs.Load(),
		FilesCreated: c.FilesCreated.Load(),
		FilesDeleted: c.FilesDeleted.Load(),
	}
}

// CounterSnapshot is an immutable copy of Counters.
type CounterSnapshot struct {
	BytesWritten int64
	BytesRead    int64
	WriteOps     int64
	ReadOps      int64
	Syncs        int64
	DirSyncs     int64
	FilesCreated int64
	FilesDeleted int64
}

// Sub returns the delta s - old, field by field.
func (s CounterSnapshot) Sub(old CounterSnapshot) CounterSnapshot {
	return CounterSnapshot{
		BytesWritten: s.BytesWritten - old.BytesWritten,
		BytesRead:    s.BytesRead - old.BytesRead,
		WriteOps:     s.WriteOps - old.WriteOps,
		ReadOps:      s.ReadOps - old.ReadOps,
		Syncs:        s.Syncs - old.Syncs,
		DirSyncs:     s.DirSyncs - old.DirSyncs,
		FilesCreated: s.FilesCreated - old.FilesCreated,
		FilesDeleted: s.FilesDeleted - old.FilesDeleted,
	}
}

func (s CounterSnapshot) String() string {
	return fmt.Sprintf("written=%d read=%d wops=%d rops=%d syncs=%d dirsyncs=%d",
		s.BytesWritten, s.BytesRead, s.WriteOps, s.ReadOps, s.Syncs, s.DirSyncs)
}

// File is the subset of *os.File behaviour the storage layers need.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	// Sync flushes the file's contents to stable storage.
	Sync() error
	// Size reports the current file length in bytes.
	Size() (int64, error)
}

// FS abstracts a directory-tree file system.
type FS interface {
	// Create truncates/creates the named file for appending writes.
	Create(name string) (File, error)
	// Open opens the named file for random reads.
	Open(name string) (File, error)
	// Remove deletes the named file.
	Remove(name string) error
	// Rename atomically renames oldname to newname.
	Rename(oldname, newname string) error
	// List returns the sorted base names of entries in dir.
	List(dir string) ([]string, error)
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Exists reports whether the named file exists.
	Exists(name string) bool
	// ReadFile reads the whole named file.
	ReadFile(name string) ([]byte, error)
	// WriteFile atomically replaces the named file with data
	// (write temp + fsync + rename).
	WriteFile(name string, data []byte) error
	// SyncDir fsyncs the directory itself, making the Create/Rename/Remove
	// of entries inside it durable. Fsyncing a file persists its contents
	// but not the directory entry pointing at it; every publish point
	// (manifest swap, table publish, WAL rotation, log finish) must call
	// this before declaring the new file durable.
	SyncDir(dir string) error
	// TryLockDir acquires an exclusive advisory lock on dir (creating a
	// LOCK file inside it on real file systems), so that at most one live
	// database handle owns the directory at a time. It returns ErrLocked —
	// without blocking — when the lock is already held. The lock dies with
	// the owning process (flock semantics); Release frees it earlier.
	TryLockDir(dir string) (DirLock, error)
	// Counters exposes the accumulated I/O statistics of this FS.
	Counters() *Counters
}

// LockFileName is the name of the lock file TryLockDir maintains inside the
// locked directory on OS-backed file systems (LevelDB's convention).
const LockFileName = "LOCK"

// ErrLocked is returned by TryLockDir when another live FS handle (for the
// OS file system: another process or another open handle) already holds the
// named directory's lock.
var ErrLocked = errors.New("vfs: directory already locked")

// DirLock is an exclusive advisory lock on a directory, obtained from
// FS.TryLockDir. Release frees it; releasing twice is a no-op.
type DirLock interface {
	Release() error
}

// Linker is optionally implemented by file systems that support hard links.
// Backup uses it to publish immutable table files into a checkpoint directory
// without copying; callers must fall back to a byte copy when the FS does not
// implement it (or when Link fails, e.g. across devices).
type Linker interface {
	Link(oldname, newname string) error
}

// Crasher is implemented by file systems that can simulate a power loss:
// Crash discards every directory entry that was not made durable via
// SyncDir and truncates surviving files to their last Sync'd length.
type Crasher interface {
	Crash()
}

// LockDropper is implemented by the test file systems. DropLocks releases
// every directory lock held through this handle — simulating the death of
// the process(es) that acquired them (flocks die with their owner) without
// altering any file data the way Crash does. Crash tests that abandon a DB
// handle and reopen the same FS call this at the simulated kill point.
type LockDropper interface {
	DropLocks()
}

// ---------------------------------------------------------------------------
// OS-backed implementation.

// osFS implements FS over the real file system.
type osFS struct {
	counters Counters
}

// NewOS returns an FS backed by the operating system.
func NewOS() FS { return &osFS{} }

func (fs *osFS) Counters() *Counters { return &fs.counters }

func (fs *osFS) Create(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	fs.counters.FilesCreated.Add(1)
	return &osFile{f: f, c: &fs.counters}, nil
}

func (fs *osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return &osFile{f: f, c: &fs.counters}, nil
}

func (fs *osFS) Remove(name string) error {
	if err := os.Remove(name); err != nil {
		return err
	}
	fs.counters.FilesDeleted.Add(1)
	return nil
}

func (fs *osFS) Rename(oldname, newname string) error {
	return os.Rename(oldname, newname)
}

// Link implements Linker via hard links (immutable-file checkpoints).
func (fs *osFS) Link(oldname, newname string) error {
	return os.Link(oldname, newname)
}

func (fs *osFS) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

func (fs *osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (fs *osFS) Exists(name string) bool {
	_, err := os.Stat(name)
	return err == nil
}

func (fs *osFS) ReadFile(name string) ([]byte, error) {
	b, err := os.ReadFile(name)
	if err == nil {
		fs.counters.BytesRead.Add(int64(len(b)))
		fs.counters.ReadOps.Add(1)
	}
	return b, err
}

func (fs *osFS) WriteFile(name string, data []byte) error {
	tmp := name + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	fs.counters.BytesWritten.Add(int64(len(data)))
	fs.counters.WriteOps.Add(1)
	fs.counters.Syncs.Add(1)
	return os.Rename(tmp, name)
}

func (fs *osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fs.counters.DirSyncs.Add(1)
	return nil
}

type osFile struct {
	f *os.File
	c *Counters
}

func (f *osFile) Write(p []byte) (int, error) {
	n, err := f.f.Write(p)
	f.c.BytesWritten.Add(int64(n))
	f.c.WriteOps.Add(1)
	return n, err
}

func (f *osFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.f.ReadAt(p, off)
	f.c.BytesRead.Add(int64(n))
	f.c.ReadOps.Add(1)
	return n, err
}

func (f *osFile) Close() error { return f.f.Close() }

func (f *osFile) Sync() error {
	f.c.Syncs.Add(1)
	return f.f.Sync()
}

func (f *osFile) Size() (int64, error) {
	st, err := f.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// ---------------------------------------------------------------------------
// In-memory implementation (tests and benchmarks that should not touch disk).

// memFS implements FS in process memory. It is safe for concurrent use.
//
// It models directory-entry durability: the live files map reflects what an
// uncrashed process observes, while durable records the entries captured by
// SyncDir. Crash rebuilds files from durable and truncates each survivor to
// its last Sync'd length, simulating a power loss.
type memFS struct {
	mu       sync.Mutex
	files    map[string]*memData
	durable  map[string]*memData
	dirs     map[string]bool
	locked   map[string]bool // dirs with a live TryLockDir lock
	counters Counters
}

// memData is one file's contents: an append-only list of extents. A byte
// is copied once into the tail extent when written and once out when read,
// like a page cache; it never moves afterwards, so an append costs its own
// length whatever the file's size, and readers need no lock.
//
// Extent 0 holds memFirstExtent bytes and extent k in 1..8 holds
// memFirstExtent<<(k-1), which together cover the first memExtentSize bytes
// (a MANIFEST, CURRENT or test-sized file stays a few KiB); every later
// extent holds memExtentSize.
//
// Writers serialise on mu. They publish to readers in this order: the extent
// table if it grew, the bytes, then size. A reader loads size first and then
// the table, so every extent below the size it saw is in the table it sees;
// table slots and bytes below size are written once and never again.
type memData struct {
	mu     sync.Mutex
	exts   [][]byte // guarded by mu; shares its backing array with table
	synced int64    // guarded by mu: the length that has been "fsynced"
	table  atomic.Pointer[[][]byte]
	size   atomic.Int64
}

const (
	memExtentSize  = 1 << 20
	memFirstExtent = 4 << 10
	// memSmallExtents is how many extents cover the first memExtentSize bytes.
	memSmallExtents = 9
)

// memLocate maps a file offset to its extent and the offset inside it.
func memLocate(off int64) (idx, in int) {
	switch {
	case off >= memExtentSize:
		return memSmallExtents - 1 + int(uint64(off)/memExtentSize), int(uint64(off) % memExtentSize)
	case off < memFirstExtent:
		return 0, int(off)
	}
	idx = bits.Len64(uint64(off) / memFirstExtent)
	return idx, int(off) - memFirstExtent<<(idx-1)
}

// memExtentLen is the capacity of extent idx.
func memExtentLen(idx int) int {
	switch {
	case idx == 0:
		return memFirstExtent
	case idx < memSmallExtents:
		return memFirstExtent << (idx - 1)
	}
	return memExtentSize
}

// write appends p. Readers see none of it until the final size.Store.
func (d *memData) write(p []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	size := d.size.Load()
	for len(p) > 0 {
		idx, in := memLocate(size)
		if idx == len(d.exts) {
			d.addExtent()
		}
		n := copy(d.exts[idx][in:], p)
		p = p[n:]
		size += int64(n)
	}
	d.size.Store(size)
}

// addExtent allocates the next extent. The table doubles when full (a
// pointer copy; the extents stay where they are) and is published at full
// capacity, so the slot filled here is already in the readers' table.
func (d *memData) addExtent() {
	if len(d.exts) == cap(d.exts) {
		grown := make([][]byte, len(d.exts), max(16, 2*cap(d.exts)))
		copy(grown, d.exts)
		d.exts = grown
		full := grown[:cap(grown)]
		d.table.Store(&full)
	}
	d.exts = append(d.exts, make([]byte, memExtentLen(len(d.exts))))
}

// readAt copies the bytes at [off, min(off+len(p), size)) into p and returns
// how many, taking no lock. size is a value the caller loaded from d.size.
func (d *memData) readAt(p []byte, off, size int64) int {
	if off >= size {
		return 0
	}
	if int64(len(p)) > size-off {
		p = p[:size-off]
	}
	exts := *d.table.Load()
	idx, in := memLocate(off)
	n := 0
	for n < len(p) {
		n += copy(p[n:], exts[idx][in:])
		idx, in = idx+1, 0
	}
	return n
}

// crashCopy returns the file a power loss leaves behind: the synced prefix.
// Extents wholly below synced are immutable and shared; the one synced cuts
// through is copied, because d's open handles may still append to it.
func (d *memData) crashCopy() *memData {
	d.mu.Lock()
	defer d.mu.Unlock()
	nd := &memData{synced: d.synced}
	if d.synced == 0 {
		return nd
	}
	last, in := memLocate(d.synced - 1)
	nd.exts = append(make([][]byte, 0, last+1), d.exts[:last]...)
	tail := make([]byte, memExtentLen(last))
	copy(tail, d.exts[last][:in+1])
	nd.exts = append(nd.exts, tail)
	full := nd.exts
	nd.table.Store(&full)
	nd.size.Store(d.synced)
	return nd
}

// NewMem returns an FS that keeps all files in memory.
func NewMem() FS {
	return &memFS{
		files:   make(map[string]*memData),
		durable: make(map[string]*memData),
		dirs:    map[string]bool{".": true, "/": true},
		locked:  make(map[string]bool),
	}
}

// TryLockDir records the lock in an in-process table: handles sharing this
// memFS (two "processes" pointed at one directory) conflict, while a fresh
// wrapper over the same files — how the crash tests model a process death —
// starts with a clean table, matching flock's die-with-the-process behavior.
func (fs *memFS) TryLockDir(dir string) (DirLock, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir = filepath.Clean(dir)
	if fs.locked[dir] {
		return nil, fmt.Errorf("%w: %s", ErrLocked, dir)
	}
	fs.locked[dir] = true
	return &memDirLock{fs: fs, dir: dir}, nil
}

// DropLocks implements LockDropper.
func (fs *memFS) DropLocks() {
	fs.mu.Lock()
	fs.locked = make(map[string]bool)
	fs.mu.Unlock()
}

type memDirLock struct {
	fs       *memFS
	dir      string
	released bool
}

func (l *memDirLock) Release() error {
	l.fs.mu.Lock()
	defer l.fs.mu.Unlock()
	if !l.released {
		delete(l.fs.locked, l.dir)
		l.released = true
	}
	return nil
}

func (fs *memFS) Counters() *Counters { return &fs.counters }

func (fs *memFS) Create(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d := &memData{}
	fs.files[filepath.Clean(name)] = d
	fs.counters.FilesCreated.Add(1)
	return &memFile{d: d, c: &fs.counters, writable: true}, nil
}

func (fs *memFS) Open(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, ok := fs.files[filepath.Clean(name)]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return &memFile{d: d, c: &fs.counters}, nil
}

func (fs *memFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	name = filepath.Clean(name)
	if _, ok := fs.files[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(fs.files, name)
	fs.counters.FilesDeleted.Add(1)
	return nil
}

func (fs *memFS) Rename(oldname, newname string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	oldname, newname = filepath.Clean(oldname), filepath.Clean(newname)
	d, ok := fs.files[oldname]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldname, Err: os.ErrNotExist}
	}
	fs.files[newname] = d
	delete(fs.files, oldname)
	return nil
}

func (fs *memFS) List(dir string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir = filepath.Clean(dir)
	var names []string
	seen := map[string]bool{}
	for name := range fs.files {
		if filepath.Dir(name) == dir {
			base := filepath.Base(name)
			if !seen[base] {
				seen[base] = true
				names = append(names, base)
			}
		}
	}
	for d := range fs.dirs {
		if filepath.Dir(d) == dir && d != dir {
			base := filepath.Base(d)
			if !seen[base] {
				seen[base] = true
				names = append(names, base)
			}
		}
	}
	sort.Strings(names)
	return names, nil
}

func (fs *memFS) MkdirAll(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir = filepath.Clean(dir)
	for dir != "." && dir != "/" && dir != "" {
		fs.dirs[dir] = true
		dir = filepath.Dir(dir)
	}
	return nil
}

func (fs *memFS) Exists(name string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	name = filepath.Clean(name)
	if _, ok := fs.files[name]; ok {
		return true
	}
	return fs.dirs[name]
}

func (fs *memFS) ReadFile(name string) ([]byte, error) {
	fs.mu.Lock()
	d, ok := fs.files[filepath.Clean(name)]
	fs.mu.Unlock()
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	out := make([]byte, d.size.Load())
	d.readAt(out, 0, int64(len(out)))
	fs.counters.BytesRead.Add(int64(len(out)))
	fs.counters.ReadOps.Add(1)
	return out, nil
}

func (fs *memFS) WriteFile(name string, data []byte) error {
	f, err := fs.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}

func (fs *memFS) SyncDir(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir = filepath.Clean(dir)
	for name, d := range fs.files {
		if filepath.Dir(name) == dir {
			fs.durable[name] = d
		}
	}
	for name := range fs.durable {
		if filepath.Dir(name) == dir {
			if _, live := fs.files[name]; !live {
				delete(fs.durable, name)
			}
		}
	}
	fs.counters.DirSyncs.Add(1)
	return nil
}

// Crash simulates a power loss: only entries captured by SyncDir survive,
// and each survivor keeps only the bytes covered by its last file Sync.
// Directories themselves are kept (MkdirAll is treated as durable; the
// engine creates its directory tree once at open).
func (fs *memFS) Crash() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	files := make(map[string]*memData, len(fs.durable))
	for name, d := range fs.durable {
		files[name] = d.crashCopy()
	}
	fs.files = files
	fs.durable = make(map[string]*memData, len(files))
	for name, d := range files {
		fs.durable[name] = d
	}
	// Power loss kills every process holding a lock; flocks die with them.
	fs.locked = make(map[string]bool)
}

type memFile struct {
	d        *memData
	c        *Counters
	writable bool
	closed   atomic.Bool
}

func (f *memFile) Write(p []byte) (int, error) {
	if f.closed.Load() {
		return 0, os.ErrClosed
	}
	if !f.writable {
		return 0, errors.New("vfs: file opened read-only")
	}
	f.d.write(p)
	f.c.BytesWritten.Add(int64(len(p)))
	f.c.WriteOps.Add(1)
	return len(p), nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if f.closed.Load() {
		return 0, os.ErrClosed
	}
	size := f.d.size.Load()
	if off >= size {
		return 0, io.EOF
	}
	n := f.d.readAt(p, off, size)
	f.c.BytesRead.Add(int64(n))
	f.c.ReadOps.Add(1)
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Close() error { f.closed.Store(true); return nil }

func (f *memFile) Sync() error {
	if f.closed.Load() {
		return os.ErrClosed
	}
	f.d.mu.Lock()
	f.d.synced = f.d.size.Load()
	f.d.mu.Unlock()
	f.c.Syncs.Add(1)
	return nil
}

func (f *memFile) Size() (int64, error) {
	if f.closed.Load() {
		return 0, os.ErrClosed
	}
	return f.d.size.Load(), nil
}
