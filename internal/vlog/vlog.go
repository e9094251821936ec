// Package vlog manages a partition's value logs — the append-only files
// that hold values after partial KV separation (paper §Design, "Partial KV
// separation"). Keys and pointers stay in the SortedStore's SSTables; a
// pointer is record.ValuePtr = <partition, logNumber, offset, length>.
//
// The log stores bare values framed as
//
//	length (4B LE) | masked CRC-32C (4B) | value
//
// Keys are not duplicated into the log: UniKV's GC identifies live values
// by scanning the SortedStore's keys+pointers (unlike WiscKey, which must
// store keys in the vLog to probe the LSM-tree).
//
// The manager holds no read-side state beyond the value cache: a scan's
// readahead (paper: posix_fadvise(WILLNEED) before dereferencing pointers)
// is ReadSpan into memory the scan owns, decoded in place by SpanValue.
package vlog

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"unikv/internal/cache"
	"unikv/internal/codec"
	"unikv/internal/record"
	"unikv/internal/vfs"
)

const headerLen = 8

// HeaderLen is the fixed per-frame header size (length + checksum),
// exported for offline tools that reason about frame extents.
const HeaderLen = headerLen

// ErrBadPointer reports a pointer that does not match the log contents.
var ErrBadPointer = errors.New("vlog: pointer does not match log record")

// ErrCorrupt is wrapped by VerifyLog failures (truncated or
// checksum-mismatching sealed records), so callers can classify them as
// corruption rather than retryable I/O.
var ErrCorrupt = errors.New("vlog: corrupt log")

// Options configures a Manager.
type Options struct {
	// MaxLogSize rotates the active log once it exceeds this many bytes.
	MaxLogSize int64
	// Partition is stamped into returned pointers.
	Partition uint32
	// Cache, when non-nil, holds hot values for point reads (PoolValue,
	// keyed by (logNum, offset)). Scan fetches and GC rewrites bypass it
	// via ReadUncached so bulk traffic cannot flush the hot set.
	Cache *cache.Cache
}

// Manager owns the value logs in one directory.
type Manager struct {
	fs   vfs.FS
	dir  string
	opts Options

	mu        sync.Mutex
	active    vfs.File
	activeNum uint32
	activeOff int64
	nextNum   uint32
	dirDirty  bool               // a log file was created since the last SyncDir
	scratch   Batch              // Append's one-value batch (guarded by mu)
	ptr1      [1]record.ValuePtr // and its pointer

	sizes   map[uint32]int64 // total bytes per log
	garbage map[uint32]int64 // dead bytes per log (greedy GC accounting)

	// readers is the read-handle table, published copy-on-write: readers
	// Load it without a lock (so no read ever queues behind an Append's
	// framing and write), and setReaderLocked replaces it under mu.
	readers atomic.Pointer[map[uint32]vfs.File]
}

// LogName formats the file name of log n.
func LogName(n uint32) string { return fmt.Sprintf("vlog-%08d.log", n) }

// ParseLogName extracts the log number from a vlog file name.
func ParseLogName(name string) (uint32, bool) {
	if !strings.HasPrefix(name, "vlog-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	var n uint32
	if _, err := fmt.Sscanf(name, "vlog-%08d.log", &n); err != nil {
		return 0, false
	}
	return n, true
}

// Open scans dir for existing logs and prepares appends to a fresh log.
func Open(fs vfs.FS, dir string, opts Options) (*Manager, error) {
	if opts.MaxLogSize <= 0 {
		opts.MaxLogSize = 8 << 20
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	m := &Manager{
		fs:      fs,
		dir:     dir,
		opts:    opts,
		sizes:   make(map[uint32]int64),
		garbage: make(map[uint32]int64),
	}
	m.readers.Store(&map[uint32]vfs.File{})
	names, err := fs.List(dir)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		n, ok := ParseLogName(name)
		if !ok {
			continue
		}
		f, err := fs.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		sz, err := f.Size()
		if err != nil {
			f.Close()
			return nil, err
		}
		f.Close()
		m.sizes[n] = sz
		if n >= m.nextNum {
			m.nextNum = n + 1
		}
	}
	return m, nil
}

// ensureActiveLocked opens a fresh active log if needed.
func (m *Manager) ensureActiveLocked() error {
	if m.active != nil && m.activeOff < m.opts.MaxLogSize {
		return nil
	}
	if m.active != nil {
		if err := m.active.Sync(); err != nil {
			return err
		}
		if err := m.active.Close(); err != nil {
			return err
		}
		m.active = nil
	}
	num := m.nextNum
	m.nextNum++
	//unikv:allow(syncpublish) deferred publish: dirDirty marks the entry and Sync/Publish fsync the dir before any pointer into this log commits
	f, err := m.fs.Create(filepath.Join(m.dir, LogName(num)))
	if err != nil {
		return err
	}
	m.active = f
	m.activeNum = num
	m.activeOff = 0
	m.sizes[num] = 0
	m.dirDirty = true
	return nil
}

// Batch stages framed values for one AppendBatch: Add copies a value into
// the batch's buffer already framed (length, checksum, bytes), so the
// bytes a merge lifts out of a table block are copied exactly once on
// their way to the log. The zero value is ready to use; Reset empties it
// and keeps the buffer.
type Batch struct {
	buf  []byte
	lens []uint32 // value length of each staged frame
}

// Add stages one value.
func (b *Batch) Add(value []byte) {
	b.buf = frameInto(b.buf, value)
	b.lens = append(b.lens, uint32(len(value)))
}

// frameInto appends value's framed record (length, checksum, bytes) to buf.
func frameInto(buf, value []byte) []byte {
	buf = codec.PutUint32(buf, uint32(len(value)))
	buf = codec.PutUint32(buf, codec.MaskChecksum(codec.Checksum(value)))
	return append(buf, value...)
}

// Len returns the number of staged values.
func (b *Batch) Len() int { return len(b.lens) }

// Size returns the staged bytes, frame headers included.
func (b *Batch) Size() int { return len(b.buf) }

// Reset empties the batch for reuse.
func (b *Batch) Reset() {
	b.buf = b.buf[:0]
	b.lens = b.lens[:0]
}

// Append writes value and returns its pointer. The write is buffered by the
// OS; call Sync before relying on durability (the merge path syncs once per
// merge, as the paper's sequential-log design intends).
func (m *Manager) Append(value []byte) (record.ValuePtr, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.scratch.Reset()
	m.scratch.Add(value)
	ptrs, err := m.appendBatchLocked(m.opts.Partition, &m.scratch, m.ptr1[:0])
	if err != nil {
		return record.ValuePtr{}, err
	}
	return ptrs[0], nil
}

// AppendBatch appends every value staged in b to the shared active log
// under one lock acquisition and — unless the log rotates inside the batch
// — one Write, and appends their pointers, stamped with partition (several
// partitions share one log namespace), to ptrs in staging order. The log
// rotates at exactly the frame where value-at-a-time appends would have
// rotated it, so the files are the same bytes either way. b is left as it
// was; Reset it before staging the next batch.
//
// Failure is batch-granular: a rejected Write leaves the log as it was
// before that Write, no pointer of the batch is valid, and the caller's
// job fails as a unit (a retry re-appends the values; bytes an earlier
// Write of the same batch landed in a since-rotated log are unreferenced
// garbage, like every value of a failed merge).
func (m *Manager) AppendBatch(partition uint32, b *Batch, ptrs []record.ValuePtr) ([]record.ValuePtr, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.appendBatchLocked(partition, b, ptrs)
}

func (m *Manager) appendBatchLocked(partition uint32, b *Batch, ptrs []record.ValuePtr) ([]record.ValuePtr, error) {
	written := 0 // bytes of b.buf already handed to a log
	pos := 0     // start of the frame being placed
	for _, n := range b.lens {
		// Frames [written, pos) are placed in the active log but not yet
		// written; the rotation test sees the offset they will end at.
		if m.active == nil || m.activeOff+int64(pos-written) >= m.opts.MaxLogSize {
			if err := m.writeActiveLocked(b.buf[written:pos]); err != nil {
				return nil, err
			}
			written = pos
			if err := m.ensureActiveLocked(); err != nil {
				return nil, err
			}
		}
		ptrs = append(ptrs, record.ValuePtr{
			Partition: partition,
			LogNum:    m.activeNum,
			Offset:    uint32(m.activeOff + int64(pos-written)),
			Length:    n,
		})
		pos += headerLen + int(n)
	}
	if err := m.writeActiveLocked(b.buf[written:pos]); err != nil {
		return nil, err
	}
	return ptrs, nil
}

// writeActiveLocked hands seg — whole frames — to the active log as ONE
// Write on purpose: a rejected write then leaves the log exactly as it
// was, so a retried background job re-appends at the same offset instead
// of burying a torn header mid-log where the sequential verifier (and
// nothing else) would find it.
func (m *Manager) writeActiveLocked(seg []byte) error {
	if len(seg) == 0 {
		return nil
	}
	if _, err := m.active.Write(seg); err != nil {
		m.reconcileActiveLocked()
		return err
	}
	m.activeOff += int64(len(seg))
	m.sizes[m.activeNum] += int64(len(seg))
	return nil
}

// reconcileActiveLocked re-anchors the active log after a failed append.
// A rejected write normally lands nothing and the log is still consistent
// at activeOff; if the file grew anyway (a partial write on a real file
// system), the torn tail cannot be appended over, so the log is sealed at
// its real size and the next append opens a fresh one. Nothing references
// the torn bytes — every pointer into them belonged to the failed,
// uncommitted job attempt.
func (m *Manager) reconcileActiveLocked() {
	if m.active == nil {
		return
	}
	if sz, err := m.active.Size(); err == nil && sz == m.activeOff {
		return
	} else if err == nil {
		m.sizes[m.activeNum] = sz
	}
	// Close without syncing: every synced-and-committed record predates the
	// failed append; the unsynced tail belongs to the aborted attempt.
	m.active.Close()
	m.active = nil
}

// dedicatedStage is how many framed bytes a DedicatedLog buffers before
// writing them out: GC and split rewrites reach the file system as a few
// large sequential writes instead of one per value.
const dedicatedStage = 256 << 10

// DedicatedLog is a log file outside the active rotation, used by GC and
// partition split so their rewrites do not interleave with concurrent merge
// appends in the shared active log. Being the file's only writer it knows
// every offset in advance: appends return their pointer at once and only
// stage the bytes, which reach the file in dedicatedStage-sized writes and
// at Finish. Pointers must not be dereferenced before Finish.
type DedicatedLog struct {
	m     *Manager
	f     vfs.File
	num   uint32
	off   int64 // bytes appended, staged ones included
	part  uint32
	done  bool
	stage []byte // framed values not yet written
}

// NewDedicatedLog opens a fresh log for exclusive appends, stamping ptrs
// with the given partition.
func (m *Manager) NewDedicatedLog(partition uint32) (*DedicatedLog, error) {
	m.mu.Lock()
	num := m.nextNum
	m.nextNum++
	m.sizes[num] = 0
	m.mu.Unlock()
	//unikv:allow(syncpublish) deferred publish: dirDirty marks the entry and Publish fsyncs the dir before the caller commits pointers to it
	f, err := m.fs.Create(filepath.Join(m.dir, LogName(num)))
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.dirDirty = true
	m.mu.Unlock()
	return &DedicatedLog{m: m, f: f, num: num, part: partition}, nil
}

// Num returns the log number.
func (d *DedicatedLog) Num() uint32 { return d.num }

// Size returns the bytes appended so far.
func (d *DedicatedLog) Size() int64 { return d.off }

// Append stages one value and returns the pointer it will have. A failed
// write poisons the whole log: the owning job fails, the file is abandoned
// (the engine removes it as the job ends), and a retry starts over on a
// fresh dedicated log.
func (d *DedicatedLog) Append(value []byte) (record.ValuePtr, error) {
	d.stage = frameInto(d.stage, value)
	return d.placed(uint32(len(value)))
}

// Rewrite copies the value ptr addresses — in any log of the manager —
// into this log and returns its new pointer: the frame is read from the
// source log straight into the staging buffer and verified there (the
// frame format is position-independent), so GC moves a live value with
// one read and no per-value buffer. It bypasses the value cache like
// ReadUncached.
func (d *DedicatedLog) Rewrite(ptr record.ValuePtr) (record.ValuePtr, error) {
	var err error
	if d.stage, err = d.m.appendFrame(d.stage, ptr); err != nil {
		return record.ValuePtr{}, err
	}
	return d.placed(ptr.Length)
}

// placed accounts for the frame of a length-byte value just staged and
// writes the stage out once it is large enough.
func (d *DedicatedLog) placed(length uint32) (record.ValuePtr, error) {
	ptr := record.ValuePtr{Partition: d.part, LogNum: d.num, Offset: uint32(d.off), Length: length}
	d.off += headerLen + int64(length)
	if len(d.stage) >= dedicatedStage {
		if err := d.flush(); err != nil {
			return record.ValuePtr{}, err
		}
	}
	return ptr, nil
}

// flush writes the staged frames.
func (d *DedicatedLog) flush() error {
	if len(d.stage) == 0 {
		return nil
	}
	if _, err := d.f.Write(d.stage); err != nil {
		return err
	}
	d.m.mu.Lock()
	d.m.sizes[d.num] += int64(len(d.stage))
	d.m.mu.Unlock()
	d.stage = d.stage[:0]
	return nil
}

// Finish writes what is still staged, then syncs and closes the log; it
// closes the file on failure too. The log remains readable via the Manager.
// If nothing was appended the empty file is removed and Finish reports that
// via the returned bool.
func (d *DedicatedLog) Finish() (nonEmpty bool, err error) {
	if d.done {
		return d.off > 0, nil
	}
	d.done = true
	err = d.flush()
	if err == nil {
		err = d.f.Sync()
	}
	if cerr := d.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return false, err
	}
	if d.off == 0 {
		d.m.mu.Lock()
		delete(d.m.sizes, d.num)
		d.m.mu.Unlock()
		return false, d.m.fs.Remove(filepath.Join(d.m.dir, LogName(d.num)))
	}
	// The file's bytes are durable; make its directory entry durable too
	// before the caller commits pointers to it in the manifest.
	d.m.mu.Lock()
	defer d.m.mu.Unlock()
	return true, d.m.syncDirLocked()
}

// Abort closes the log's file without syncing unless Finish ran: the
// owning job failed, and its end removes the file. A job defers it right
// after NewDedicatedLog.
func (d *DedicatedLog) Abort() {
	if !d.done {
		d.done = true
		d.f.Close()
	}
}

// syncDirLocked fsyncs the log directory if any log file was created since
// the last call. Requires m.mu held.
func (m *Manager) syncDirLocked() error {
	if !m.dirDirty {
		return nil
	}
	if err := m.fs.SyncDir(m.dir); err != nil {
		return err
	}
	m.dirDirty = false
	return nil
}

// Sync makes appended values durable: file contents plus, if a log was
// created since the last call, the directory entry pointing at it.
func (m *Manager) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.active != nil {
		if err := m.active.Sync(); err != nil {
			return err
		}
	}
	return m.syncDirLocked()
}

// reader returns a cached read handle for log n.
func (m *Manager) reader(n uint32) (vfs.File, error) {
	if f, ok := (*m.readers.Load())[n]; ok {
		return f, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, ok := (*m.readers.Load())[n]; ok {
		return f, nil
	}
	f, err := m.fs.Open(filepath.Join(m.dir, LogName(n)))
	if err != nil {
		return nil, err
	}
	m.setReaderLocked(n, f)
	return f, nil
}

// setReaderLocked publishes a copy of the handle table with log n mapped
// to f, or unmapped when f is nil, and returns the handle it replaced.
// Requires m.mu held.
func (m *Manager) setReaderLocked(n uint32, f vfs.File) vfs.File {
	old := *m.readers.Load()
	next := maps.Clone(old)
	if f != nil {
		next[n] = f
	} else {
		delete(next, n)
	}
	m.readers.Store(&next)
	return old[n]
}

// Read fetches the value at ptr for a point lookup, verifying length and
// checksum. The value cache is consulted first; a miss reads the log and
// caches the verified value. The returned buffer is owned by the caller.
func (m *Manager) Read(ptr record.ValuePtr) ([]byte, error) {
	return m.ReadHinted(ptr, true)
}

// ReadHinted is Read with a cache-admission hint: warm reads admit their
// value with the evicting Add (the pre-hint behavior), cold reads with
// AddCold, which only fills free space. The engine derives warm from the
// hot ring's frequency signal — a key it has sampled at least twice — so
// scattered reads over a cold tail cannot evict the resident hot set.
// AddCold is handed the very buffer the caller gets and copies it only if
// it admits it, so a cold read of a full cache costs no second buffer.
func (m *Manager) ReadHinted(ptr record.ValuePtr, warm bool) ([]byte, error) {
	ck := cache.Key{Pool: cache.PoolValue, ID: uint64(ptr.LogNum), Off: uint64(ptr.Offset)}
	if b, ok := m.opts.Cache.Get(ck); ok && uint32(len(b)) == ptr.Length {
		// Cached bytes are shared and immutable; Read hands the buffer to
		// the caller, so copy.
		return append([]byte(nil), b...), nil
	}
	val, err := m.ReadUncached(ptr)
	if err != nil {
		return nil, err
	}
	if warm {
		m.opts.Cache.Add(ck, append([]byte(nil), val...))
	} else {
		m.opts.Cache.AddCold(ck, val)
	}
	return val, nil
}

// ReadUncached reads and validates the framed value at ptr from the log
// file, without value-cache participation (it neither consults nor
// populates it): scans and GC use it so bulk value traffic cannot evict
// the point-read hot set. A short read — a pointer past the synced tail
// after a crash — is an explicit error, never partial data: ReadAt can
// return n < len(buf) with io.EOF, and the stale/zero suffix of buf must
// not reach the decoder as if it had been read.
func (m *Manager) ReadUncached(ptr record.ValuePtr) ([]byte, error) {
	frame, err := m.appendFrame(nil, ptr)
	if err != nil {
		return nil, err
	}
	return frame[headerLen:len(frame):len(frame)], nil
}

// appendFrame reads the frame ptr addresses (header and value) onto the end
// of dst and verifies it there; on any error dst comes back unchanged.
func (m *Manager) appendFrame(dst []byte, ptr record.ValuePtr) ([]byte, error) {
	f, err := m.reader(ptr.LogNum)
	if err != nil {
		return dst, err
	}
	start := len(dst)
	want := headerLen + int(ptr.Length)
	dst = append(dst, make([]byte, want)...)
	n, err := f.ReadAt(dst[start:], int64(ptr.Offset))
	if err != nil && err != io.EOF {
		return dst[:start], err
	}
	if n < want {
		return dst[:start], fmt.Errorf("vlog: log %d truncated at offset %d (%d of %d bytes): %w",
			ptr.LogNum, ptr.Offset, n, want, ErrBadPointer)
	}
	if _, err := decodeValue(dst[start:], ptr.Length); err != nil {
		return dst[:start], err
	}
	return dst, nil
}

// decodeValue validates a framed value against the pointer's length.
func decodeValue(buf []byte, wantLen uint32) ([]byte, error) {
	if len(buf) < headerLen {
		return nil, ErrBadPointer
	}
	length, rest, _ := codec.Uint32(buf)
	crc, rest, _ := codec.Uint32(rest)
	if length != wantLen || len(rest) < int(length) {
		return nil, ErrBadPointer
	}
	val := rest[:length:length]
	if codec.MaskChecksum(codec.Checksum(val)) != crc {
		return nil, ErrBadPointer
	}
	return val, nil
}

// ReadSpan reads log n's bytes from offset off on into dst and returns the
// part of dst it filled — the scan readahead: one read covers a run of
// values, which SpanValue then decodes in place, in memory the caller owns.
// A short read at the log tail returns the bytes that exist; SpanValue
// rejects pointers reaching past them.
func (m *Manager) ReadSpan(n uint32, off int64, dst []byte) ([]byte, error) {
	f, err := m.reader(n)
	if err != nil {
		return nil, err
	}
	rd, err := f.ReadAt(dst, off)
	if err != nil && err != io.EOF {
		return nil, err
	}
	return dst[:rd], nil
}

// SpanValue returns the value ptr addresses inside span — the bytes of
// ptr's log from offset spanOff on, as ReadSpan returned them — after
// verifying the frame's length and checksum. The result aliases span,
// cap-limited to the value, so appending to it cannot reach a neighbour.
// A pointer not fully inside span, or whose frame fails verification,
// yields ErrBadPointer.
func SpanValue(span []byte, spanOff int64, ptr record.ValuePtr) ([]byte, error) {
	start := int64(ptr.Offset) - spanOff
	end := start + headerLen + int64(ptr.Length)
	if start < 0 || end > int64(len(span)) {
		return nil, ErrBadPointer
	}
	return decodeValue(span[start:end], ptr.Length)
}

// AddGarbage records n dead bytes in log logNum (an overwritten or deleted
// value). The greedy GC policy picks the partition with the most garbage.
func (m *Manager) AddGarbage(logNum uint32, n int64) {
	m.mu.Lock()
	m.garbage[logNum] += n
	m.mu.Unlock()
}

// Garbage returns the total dead bytes across logs.
func (m *Manager) Garbage() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var g int64
	for _, v := range m.garbage {
		g += v
	}
	return g
}

// TotalSize returns the bytes held by all logs.
func (m *Manager) TotalSize() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var s int64
	for _, v := range m.sizes {
		s += v
	}
	return s
}

// LogNums returns the numbers of all logs, ascending.
func (m *Manager) LogNums() []uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]uint32, 0, len(m.sizes))
	for n := range m.sizes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SealActive closes the active log so a subsequent Append starts a new one.
// GC uses it to guarantee old logs are immutable before rewriting them.
func (m *Manager) SealActive() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.active == nil {
		return nil
	}
	if err := m.active.Sync(); err != nil {
		return err
	}
	if err := m.active.Close(); err != nil {
		return err
	}
	m.active = nil
	return nil
}

// ActiveNum returns the number of the log currently receiving appends, or
// (0, false) when none is open.
func (m *Manager) ActiveNum() (uint32, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.active == nil {
		return 0, false
	}
	return m.activeNum, true
}

// Remove deletes log n (after GC has rewritten its live values). Cached
// values from the log are dropped first so no read started after the
// removal can observe collected data.
func (m *Manager) Remove(n uint32) error {
	m.opts.Cache.EvictLog(n)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.active != nil && m.activeNum == n {
		return errors.New("vlog: cannot remove active log")
	}
	if f := m.setReaderLocked(n, nil); f != nil {
		f.Close()
	}
	delete(m.sizes, n)
	delete(m.garbage, n)
	return m.fs.Remove(filepath.Join(m.dir, LogName(n)))
}

// Close releases all file handles.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var first error
	if m.active != nil {
		if err := m.active.Sync(); err != nil && first == nil {
			first = err
		}
		if err := m.active.Close(); err != nil && first == nil {
			first = err
		}
		m.active = nil
	}
	for _, f := range *m.readers.Swap(&map[uint32]vfs.File{}) {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Exclusive runs fn with the manager's mutex held. Tests use it to show
// that a path never takes the mutex: the path completes inside fn.
func (m *Manager) Exclusive(fn func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fn()
}

// SizeOf returns the byte size of log n (0 if unknown).
func (m *Manager) SizeOf(n uint32) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sizes[n]
}

// GarbageOf returns the recorded dead bytes of log n.
func (m *Manager) GarbageOf(n uint32) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.garbage[n]
}

// VerifyLog walks log n sequentially, checking every framed value's
// checksum. It returns the number of values and the first error.
func (m *Manager) VerifyLog(n uint32) (int, error) {
	count, _, err := m.VerifyLogPrefix(n, -1, nil)
	return count, err
}

// VerifyLogPrefix verifies the first limit bytes of log n (limit < 0
// means the whole file). pace, when non-nil, is called with each verified
// frame's byte count — the scrub's rate limiter hangs off it — and may
// abort the walk by returning an error. It returns the number of valid
// frames, the offset where the walk stopped (the length of the longest
// valid frame prefix), and the first error.
//
// Passing the active log's reconciled boundary as limit verifies exactly
// the sealed prefix: appends only ever extend the boundary, so the bytes
// below a captured boundary are immutable even while writers append.
func (m *Manager) VerifyLogPrefix(n uint32, limit int64, pace func(int64) error) (int, int64, error) {
	f, err := m.reader(n)
	if err != nil {
		return 0, 0, err
	}
	size, err := f.Size()
	if err != nil {
		return 0, 0, err
	}
	if limit >= 0 && limit < size {
		size = limit
	}
	return ScanValidPrefix(f, size, pace)
}

// ActiveBound returns the active log's number and its reconciled frame
// boundary: every byte below the boundary belongs to a complete,
// checksummed frame. ok is false when no log is open for appends.
func (m *Manager) ActiveBound() (n uint32, off int64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.active == nil {
		return 0, 0, false
	}
	return m.activeNum, m.activeOff, true
}

// ScanValidPrefix walks the framed values in the first size bytes of f,
// verifying every checksum, and returns the frame count, the length of
// the longest valid frame prefix, and the first error. Offline repair
// uses the returned prefix length as the truncation point for a torn
// log; pace is the optional per-frame rate-limit hook (see
// VerifyLogPrefix).
func ScanValidPrefix(f vfs.File, size int64, pace func(int64) error) (int, int64, error) {
	count := 0
	var off int64
	hdr := make([]byte, headerLen)
	for off < size {
		// hdr is reused across iterations: a tolerated short read would
		// leave the previous header's bytes in place and fabricate a frame,
		// so require the full header (and below, the full value).
		n, err := f.ReadAt(hdr, off)
		if err != nil && err != io.EOF {
			return count, off, err
		}
		if n < headerLen {
			return count, off, fmt.Errorf("%w: truncated header at offset %d", ErrCorrupt, off)
		}
		length, rest, _ := codec.Uint32(hdr)
		crc, _, _ := codec.Uint32(rest)
		if off+headerLen+int64(length) > size {
			return count, off, fmt.Errorf("%w: truncated value at offset %d", ErrCorrupt, off)
		}
		val := make([]byte, length)
		n, err = f.ReadAt(val, off+headerLen)
		if err != nil && err != io.EOF {
			return count, off, err
		}
		if n < int(length) {
			return count, off, fmt.Errorf("%w: truncated value at offset %d", ErrCorrupt, off)
		}
		if codec.MaskChecksum(codec.Checksum(val)) != crc {
			return count, off, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, off)
		}
		count++
		off += headerLen + int64(length)
		if pace != nil {
			if err := pace(headerLen + int64(length)); err != nil {
				return count, off, err
			}
		}
	}
	return count, off, nil
}
