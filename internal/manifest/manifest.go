// Package manifest persists the engine's metadata: the partition set with
// boundary keys, each partition's table lists, WAL and hash-index
// checkpoint numbers, referenced value logs, and the global file/sequence
// counters.
//
// Like LevelDB's MANIFEST (which the paper reuses), it is itself a
// write-ahead log: a snapshot record followed by edit batches, each batch
// applied atomically at recovery. A CURRENT file names the live manifest.
// Merge, GC, and split commit their outcome as one batch — the batch record
// doubles as the paper's GC_done / split-done marker: a crash before the
// batch leaves the old state (the operation redoes), a crash after leaves
// the new state, and orphaned files are swept at open.
package manifest

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"unikv/internal/codec"
	"unikv/internal/vfs"
	"unikv/internal/wal"
)

// ErrCorrupt reports an unreadable manifest.
var ErrCorrupt = errors.New("manifest: corrupt")

// TableMeta describes one SSTable file.
type TableMeta struct {
	FileNum  uint64
	Size     int64
	Count    int
	Smallest []byte
	Largest  []byte
	MinSeq   uint64
	MaxSeq   uint64
}

// PartitionMeta describes one partition.
type PartitionMeta struct {
	ID uint32
	// Lower is the inclusive lower boundary key; the first partition's is
	// empty. A partition owns [Lower, next partition's Lower).
	Lower []byte
	// Unsorted lists UnsortedStore tables in flush order (oldest first).
	Unsorted []TableMeta
	// Sorted lists SortedStore tables in key order (one sorted run).
	Sorted []TableMeta
	// WALNum is the file number of the partition's live WAL (0 = none).
	WALNum uint64
	// HashCkpt is the file number of the newest hash-index checkpoint
	// (0 = none).
	HashCkpt uint64
	// Logs lists the value logs this partition references (owned or
	// inherited from a split parent awaiting lazy value split).
	Logs []uint32
}

// clone deep-copies the partition metadata.
func (p *PartitionMeta) clone() *PartitionMeta {
	c := *p
	c.Lower = append([]byte(nil), p.Lower...)
	c.Unsorted = append([]TableMeta(nil), p.Unsorted...)
	c.Sorted = append([]TableMeta(nil), p.Sorted...)
	c.Logs = append([]uint32(nil), p.Logs...)
	return &c
}

// State is the full metadata image.
type State struct {
	NextFileNum uint64
	LastSeq     uint64
	NextLogNum  uint32
	NextPartID  uint32
	Partitions  map[uint32]*PartitionMeta
}

// NewState returns an empty state with counters initialized.
func NewState() *State {
	return &State{NextFileNum: 1, NextPartID: 1, Partitions: map[uint32]*PartitionMeta{}}
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	c := &State{
		NextFileNum: s.NextFileNum,
		LastSeq:     s.LastSeq,
		NextLogNum:  s.NextLogNum,
		NextPartID:  s.NextPartID,
		Partitions:  make(map[uint32]*PartitionMeta, len(s.Partitions)),
	}
	for id, p := range s.Partitions {
		c.Partitions[id] = p.clone()
	}
	return c
}

// SortedPartitions returns partitions ordered by lower boundary.
func (s *State) SortedPartitions() []*PartitionMeta {
	out := make([]*PartitionMeta, 0, len(s.Partitions))
	for _, p := range s.Partitions {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		return codec.Compare(out[i].Lower, out[j].Lower) < 0
	})
	return out
}

// ---------------------------------------------------------------------------
// Edits.

// editTag discriminates edit encodings.
type editTag byte

const (
	tagNextFile editTag = 1 + iota
	tagLastSeq
	tagNextLog
	tagNextPart
	tagAddPartition
	tagRemovePartition
	tagAddUnsorted
	tagSetUnsorted
	tagSetSorted
	tagSetWAL
	tagSetHashCkpt
	tagSetLogs
)

// Edit is one state mutation. Exactly one constructor-set field group is
// meaningful per edit; Apply dispatches on tag.
type Edit struct {
	tag    editTag
	num    uint64
	pid    uint32
	lower  []byte
	table  TableMeta
	tables []TableMeta
	logs   []uint32
}

// NextFile sets the next file number.
func NextFile(n uint64) Edit { return Edit{tag: tagNextFile, num: n} }

// LastSeq sets the last durable sequence number.
func LastSeq(n uint64) Edit { return Edit{tag: tagLastSeq, num: n} }

// NextLog sets the next value-log number.
func NextLog(n uint32) Edit { return Edit{tag: tagNextLog, num: uint64(n)} }

// NextPart sets the next partition ID.
func NextPart(n uint32) Edit { return Edit{tag: tagNextPart, num: uint64(n)} }

// AddPartition creates partition id with the given lower bound.
func AddPartition(id uint32, lower []byte) Edit {
	return Edit{tag: tagAddPartition, pid: id, lower: lower}
}

// RemovePartition drops partition id.
func RemovePartition(id uint32) Edit { return Edit{tag: tagRemovePartition, pid: id} }

// AddUnsorted appends one table to partition id's UnsortedStore.
func AddUnsorted(id uint32, t TableMeta) Edit {
	return Edit{tag: tagAddUnsorted, pid: id, table: t}
}

// SetUnsorted replaces partition id's UnsortedStore table list.
func SetUnsorted(id uint32, ts []TableMeta) Edit {
	return Edit{tag: tagSetUnsorted, pid: id, tables: ts}
}

// SetSorted replaces partition id's SortedStore table list.
func SetSorted(id uint32, ts []TableMeta) Edit {
	return Edit{tag: tagSetSorted, pid: id, tables: ts}
}

// SetWAL points partition id at WAL file n.
func SetWAL(id uint32, n uint64) Edit { return Edit{tag: tagSetWAL, pid: id, num: n} }

// SetHashCkpt points partition id at hash-index checkpoint file n.
func SetHashCkpt(id uint32, n uint64) Edit { return Edit{tag: tagSetHashCkpt, pid: id, num: n} }

// SetLogs replaces partition id's referenced value-log list.
func SetLogs(id uint32, logs []uint32) Edit { return Edit{tag: tagSetLogs, pid: id, logs: logs} }

// apply mutates s.
func (e Edit) apply(s *State) error {
	switch e.tag {
	case tagNextFile:
		s.NextFileNum = e.num
	case tagLastSeq:
		s.LastSeq = e.num
	case tagNextLog:
		s.NextLogNum = uint32(e.num)
	case tagNextPart:
		s.NextPartID = uint32(e.num)
	case tagAddPartition:
		s.Partitions[e.pid] = &PartitionMeta{ID: e.pid, Lower: append([]byte(nil), e.lower...)}
	case tagRemovePartition:
		delete(s.Partitions, e.pid)
	default:
		p, ok := s.Partitions[e.pid]
		if !ok {
			return fmt.Errorf("manifest: edit %d references unknown partition %d", e.tag, e.pid)
		}
		switch e.tag {
		case tagAddUnsorted:
			p.Unsorted = append(p.Unsorted, e.table)
		case tagSetUnsorted:
			p.Unsorted = append([]TableMeta(nil), e.tables...)
		case tagSetSorted:
			p.Sorted = append([]TableMeta(nil), e.tables...)
		case tagSetWAL:
			p.WALNum = e.num
		case tagSetHashCkpt:
			p.HashCkpt = e.num
		case tagSetLogs:
			p.Logs = append([]uint32(nil), e.logs...)
		default:
			return fmt.Errorf("manifest: unknown edit tag %d", e.tag)
		}
	}
	return nil
}

// encodeTable appends t's wire form.
func encodeTable(dst []byte, t TableMeta) []byte {
	dst = codec.PutUvarint(dst, t.FileNum)
	dst = codec.PutUvarint(dst, uint64(t.Size))
	dst = codec.PutUvarint(dst, uint64(t.Count))
	dst = codec.PutBytes(dst, t.Smallest)
	dst = codec.PutBytes(dst, t.Largest)
	dst = codec.PutUvarint(dst, t.MinSeq)
	dst = codec.PutUvarint(dst, t.MaxSeq)
	return dst
}

func decodeTable(src []byte) (TableMeta, []byte, error) {
	var t TableMeta
	var v uint64
	var b []byte
	var err error
	if t.FileNum, src, err = codec.Uvarint(src); err != nil {
		return t, nil, err
	}
	if v, src, err = codec.Uvarint(src); err != nil {
		return t, nil, err
	}
	t.Size = int64(v)
	if v, src, err = codec.Uvarint(src); err != nil {
		return t, nil, err
	}
	t.Count = int(v)
	if b, src, err = codec.Bytes(src); err != nil {
		return t, nil, err
	}
	t.Smallest = append([]byte(nil), b...)
	if b, src, err = codec.Bytes(src); err != nil {
		return t, nil, err
	}
	t.Largest = append([]byte(nil), b...)
	if t.MinSeq, src, err = codec.Uvarint(src); err != nil {
		return t, nil, err
	}
	if t.MaxSeq, src, err = codec.Uvarint(src); err != nil {
		return t, nil, err
	}
	return t, src, nil
}

// encode appends the edit's wire form.
func (e Edit) encode(dst []byte) []byte {
	dst = append(dst, byte(e.tag))
	switch e.tag {
	case tagNextFile, tagLastSeq, tagNextLog, tagNextPart:
		dst = codec.PutUvarint(dst, e.num)
	case tagAddPartition:
		dst = codec.PutUvarint(dst, uint64(e.pid))
		dst = codec.PutBytes(dst, e.lower)
	case tagRemovePartition:
		dst = codec.PutUvarint(dst, uint64(e.pid))
	case tagAddUnsorted:
		dst = codec.PutUvarint(dst, uint64(e.pid))
		dst = encodeTable(dst, e.table)
	case tagSetUnsorted, tagSetSorted:
		dst = codec.PutUvarint(dst, uint64(e.pid))
		dst = codec.PutUvarint(dst, uint64(len(e.tables)))
		for _, t := range e.tables {
			dst = encodeTable(dst, t)
		}
	case tagSetWAL, tagSetHashCkpt:
		dst = codec.PutUvarint(dst, uint64(e.pid))
		dst = codec.PutUvarint(dst, e.num)
	case tagSetLogs:
		dst = codec.PutUvarint(dst, uint64(e.pid))
		dst = codec.PutUvarint(dst, uint64(len(e.logs)))
		for _, l := range e.logs {
			dst = codec.PutUvarint(dst, uint64(l))
		}
	}
	return dst
}

// decodeEdit parses one edit.
func decodeEdit(src []byte) (Edit, []byte, error) {
	if len(src) == 0 {
		return Edit{}, nil, ErrCorrupt
	}
	e := Edit{tag: editTag(src[0])}
	src = src[1:]
	var v uint64
	var err error
	switch e.tag {
	case tagNextFile, tagLastSeq, tagNextLog, tagNextPart:
		if e.num, src, err = codec.Uvarint(src); err != nil {
			return e, nil, err
		}
	case tagAddPartition:
		if v, src, err = codec.Uvarint(src); err != nil {
			return e, nil, err
		}
		e.pid = uint32(v)
		var b []byte
		if b, src, err = codec.Bytes(src); err != nil {
			return e, nil, err
		}
		e.lower = append([]byte(nil), b...)
	case tagRemovePartition:
		if v, src, err = codec.Uvarint(src); err != nil {
			return e, nil, err
		}
		e.pid = uint32(v)
	case tagAddUnsorted:
		if v, src, err = codec.Uvarint(src); err != nil {
			return e, nil, err
		}
		e.pid = uint32(v)
		if e.table, src, err = decodeTable(src); err != nil {
			return e, nil, err
		}
	case tagSetUnsorted, tagSetSorted:
		if v, src, err = codec.Uvarint(src); err != nil {
			return e, nil, err
		}
		e.pid = uint32(v)
		var n uint64
		if n, src, err = codec.Uvarint(src); err != nil {
			return e, nil, err
		}
		for i := uint64(0); i < n; i++ {
			var t TableMeta
			if t, src, err = decodeTable(src); err != nil {
				return e, nil, err
			}
			e.tables = append(e.tables, t)
		}
	case tagSetWAL, tagSetHashCkpt:
		if v, src, err = codec.Uvarint(src); err != nil {
			return e, nil, err
		}
		e.pid = uint32(v)
		if e.num, src, err = codec.Uvarint(src); err != nil {
			return e, nil, err
		}
	case tagSetLogs:
		if v, src, err = codec.Uvarint(src); err != nil {
			return e, nil, err
		}
		e.pid = uint32(v)
		var n uint64
		if n, src, err = codec.Uvarint(src); err != nil {
			return e, nil, err
		}
		for i := uint64(0); i < n; i++ {
			var l uint64
			if l, src, err = codec.Uvarint(src); err != nil {
				return e, nil, err
			}
			e.logs = append(e.logs, uint32(l))
		}
	default:
		return e, nil, ErrCorrupt
	}
	return e, src, nil
}

// SnapshotEdits expands a state into the edit batch that recreates it.
func SnapshotEdits(s *State) []Edit {
	edits := []Edit{
		NextFile(s.NextFileNum),
		LastSeq(s.LastSeq),
		NextLog(s.NextLogNum),
		NextPart(s.NextPartID),
	}
	for _, p := range s.SortedPartitions() {
		edits = append(edits,
			AddPartition(p.ID, p.Lower),
			SetUnsorted(p.ID, p.Unsorted),
			SetSorted(p.ID, p.Sorted),
			SetWAL(p.ID, p.WALNum),
			SetHashCkpt(p.ID, p.HashCkpt),
			SetLogs(p.ID, p.Logs),
		)
	}
	return edits
}

// ---------------------------------------------------------------------------
// Manifest file management.

const currentName = "CURRENT"

// manifestName formats the manifest file name for generation n.
func manifestName(n uint64) string { return fmt.Sprintf("MANIFEST-%06d", n) }

// Manifest owns the live metadata log.
type Manifest struct {
	fs  vfs.FS
	dir string

	mu    sync.Mutex
	state *State
	w     *wal.Writer
	// gen is the generation last written or attempted; live is the one
	// w appends to. Each attempt takes a new number: one that failed after
	// repointing CURRENT left the only copy of the state CURRENT names.
	gen    uint64
	live   uint64
	closed bool
	// roll is set while the live log may hold a batch its Apply reported
	// failed: a failed sync leaves a complete record a replay would act
	// on, a torn write leaves a writer that takes no more. Nothing is
	// appended until a fresh generation holding exactly state replaces it.
	roll bool
	// RotateAt triggers a snapshot rotation once the live log exceeds this
	// many bytes (0 = default 1 MiB).
	RotateAt int64
}

// Open recovers the manifest in dir, creating an empty one if absent.
func Open(fs vfs.FS, dir string) (*Manifest, error) {
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	state, gen, _, err := Load(fs, dir)
	if err != nil {
		return nil, err
	}
	return Continue(fs, dir, state, gen)
}

// Load reads the state the manifest in dir records, writing nothing. gen is
// the generation CURRENT names, 0 with no CURRENT (and an empty state). A
// torn final record is a crash mid-commit and is dropped (torn reports it);
// a record stream damaged anywhere else is ErrCorrupt, since every record
// before the last was acknowledged and acted on.
func Load(fs vfs.FS, dir string) (state *State, gen uint64, torn bool, err error) {
	cur := filepath.Join(dir, currentName)
	if !fs.Exists(cur) {
		return NewState(), 0, false, nil
	}
	name, err := fs.ReadFile(cur)
	if err != nil {
		return nil, 0, false, err
	}
	base := strings.TrimSpace(string(name))
	if _, err := fmt.Sscanf(base, "MANIFEST-%06d", &gen); err != nil || !fs.Exists(filepath.Join(dir, base)) {
		return nil, 0, false, fmt.Errorf("%w: CURRENT names %q", ErrCorrupt, base)
	}
	f, err := fs.Open(filepath.Join(dir, base))
	if err != nil {
		return nil, 0, false, err
	}
	defer f.Close()
	state = NewState()
	r := wal.NewReader(f)
	for {
		rec, err := r.Next()
		if err == io.EOF && r.Damaged() {
			return nil, 0, false, fmt.Errorf("%w: %s has a damaged record, not a torn tail", ErrCorrupt, base)
		}
		if err == io.EOF {
			return state, gen, r.Torn(), nil
		}
		if err != nil {
			return nil, 0, false, err
		}
		for len(rec) > 0 {
			var e Edit
			if e, rec, err = decodeEdit(rec); err != nil {
				return nil, 0, false, err
			}
			if err := e.apply(state); err != nil {
				return nil, 0, false, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
		}
	}
}

// Continue makes state, which Load read as generation gen, the live
// manifest: it starts generation gen+1 with a snapshot of it, so nothing is
// ever appended to a log only partially validated.
func Continue(fs vfs.FS, dir string, state *State, gen uint64) (*Manifest, error) {
	m := &Manifest{fs: fs, dir: dir, RotateAt: 1 << 20, state: state, gen: gen + 1, live: gen}
	if err := m.writeFresh(); err != nil {
		return nil, err
	}
	return m, nil
}

// writeFresh starts manifest generation m.gen with a snapshot of m.state
// and repoints CURRENT at it.
func (m *Manifest) writeFresh() error {
	name := manifestName(m.gen)
	f, err := m.fs.Create(filepath.Join(m.dir, name))
	if err != nil {
		return err
	}
	w := wal.NewWriter(f)
	var buf []byte
	for _, e := range SnapshotEdits(m.state) {
		buf = e.encode(buf)
	}
	if err := w.AddRecord(buf); err != nil {
		f.Close()
		return err
	}
	if err := w.Sync(); err != nil {
		f.Close()
		return err
	}
	// Persist the new manifest's directory entry before CURRENT names it,
	// and the CURRENT rename itself before anything relies on the swap.
	// Without these a crash can lose the just-published generation even
	// though its contents were fsynced.
	if err := m.fs.SyncDir(m.dir); err != nil {
		f.Close()
		return err
	}
	if err := m.fs.WriteFile(filepath.Join(m.dir, currentName), []byte(name+"\n")); err != nil {
		f.Close()
		return err
	}
	if err := m.fs.SyncDir(m.dir); err != nil {
		f.Close()
		return err
	}
	// Best-effort removal of the generations this one supersedes: the
	// live one and every failed attempt since.
	for g := max(m.live, 1); g < m.gen; g++ {
		if old := filepath.Join(m.dir, manifestName(g)); m.fs.Exists(old) {
			m.fs.Remove(old)
		}
	}
	if m.w != nil {
		m.w.Close()
	}
	m.w, m.live = w, m.gen
	return nil
}

// State returns a deep copy of the current metadata.
func (m *Manifest) State() *State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state.Clone()
}

// Apply durably appends the edit batch (one atomic record) and applies it
// to the in-memory state.
func (m *Manifest) Apply(edits ...Edit) error {
	if len(edits) == 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("manifest: closed")
	}
	// Validate against a scratch copy first so a bad edit cannot wedge the
	// durable log out of sync with memory.
	scratch := m.state.Clone()
	for _, e := range edits {
		if err := e.apply(scratch); err != nil {
			return err
		}
	}
	if m.roll {
		if err := m.rollLocked(); err != nil {
			return err
		}
	}
	var buf []byte
	for _, e := range edits {
		buf = e.encode(buf)
	}
	if err := m.w.AddRecord(buf); err != nil {
		m.roll = true
		return err
	}
	if err := m.w.Sync(); err != nil {
		// The caller drops what the batch named once this returns; roll
		// now so a crash before the next Apply does not replay it.
		m.roll = true
		m.rollLocked()
		return err
	}
	m.state = scratch
	if m.w.Size() > m.rotateAt() {
		// The batch is committed: a failed rotation (which may already
		// have repointed CURRENT) is the next Apply's to finish.
		m.roll = true
		m.rollLocked()
	}
	return nil
}

// rollLocked moves the log to a fresh generation holding m.state. A failed
// attempt keeps roll set, and the next one takes the generation after it.
func (m *Manifest) rollLocked() error {
	m.gen++
	if err := m.writeFresh(); err != nil {
		return err
	}
	m.roll = false
	return nil
}

func (m *Manifest) rotateAt() int64 {
	if m.RotateAt <= 0 {
		return 1 << 20
	}
	return m.RotateAt
}

// Close releases the manifest log.
func (m *Manifest) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	var err error
	if m.roll {
		err = m.rollLocked() // or a reopen replays a batch reported failed
	}
	if cerr := m.w.Close(); err == nil {
		err = cerr
	}
	return err
}

// Rewrite replaces whatever manifest lives in dir — readable, corrupt, or
// absent — with a fresh generation holding exactly state. Offline repair
// uses it after reconstructing the state from the surviving files; the
// write follows writeFresh's crash ordering (new generation fsynced, then
// CURRENT repointed), and superseded generations are removed best effort.
func Rewrite(fs vfs.FS, dir string, state *State) error {
	if err := fs.MkdirAll(dir); err != nil {
		return err
	}
	// Pick a generation above every existing MANIFEST file so nothing on
	// disk can be confused with the new one.
	gen := uint64(1)
	names, _ := fs.List(dir)
	for _, name := range names {
		var n uint64
		if _, err := fmt.Sscanf(name, "MANIFEST-%06d", &n); err == nil && n >= gen {
			gen = n + 1
		}
	}
	// live = gen: the loop below removes the older generations.
	m := &Manifest{fs: fs, dir: dir, RotateAt: 1 << 20, state: state.Clone(), gen: gen, live: gen}
	if err := m.writeFresh(); err != nil {
		return err
	}
	for _, name := range names {
		var n uint64
		if _, err := fmt.Sscanf(name, "MANIFEST-%06d", &n); err == nil && n != gen {
			fs.Remove(filepath.Join(dir, name))
		}
	}
	return m.Close()
}
