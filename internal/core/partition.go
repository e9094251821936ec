package core

import (
	"io"
	"sync"
	"sync/atomic"

	"unikv/internal/arena"
	"unikv/internal/codec"
	"unikv/internal/manifest"
	"unikv/internal/memtable"
	"unikv/internal/record"
	"unikv/internal/sorted"
	"unikv/internal/sortedview"
	"unikv/internal/sstable"
	"unikv/internal/unsorted"
	"unikv/internal/wal"
)

// partition is one range partition: memtable + WAL + UnsortedStore +
// SortedStore + references to value logs. Its RWMutex serializes writers
// and structural changes (flush/merge/GC/split) against readers.
type partition struct {
	db    *DB
	id    uint32
	dir   string
	lower []byte // inclusive; nil/empty = -inf
	upper []byte // exclusive; nil = +inf

	// maintMu serializes structural background jobs (merge/scan-merge/
	// GC/split) on this partition; flushMu serializes flushes (a flush
	// may run concurrently with a structural job, but not with a split
	// or a user-driven Flush draining the immutable queue). Both are
	// acquired before mu; see scheduler.go for the full lock order.
	maintMu sync.Mutex
	flushMu sync.Mutex

	mu       sync.RWMutex
	mem      *memtable.Memtable
	imm      []*memtable.Memtable // frozen, flush-pending; oldest first
	immWALs  []uint64             // WAL file per frozen memtable (0 = none)
	wal      *wal.Writer
	walNum   uint64
	walBuf   []byte // WAL record encoding scratch, reused under mu
	uns      *unsorted.Store
	srt      *sorted.Store
	logs     map[uint32]bool // referenced value logs
	hashCkpt uint64          // current checkpoint file number (0 = none)

	flushesSinceCkpt int
	garbageBytes     atomic.Int64 // dead value bytes attributed to this partition

	// quarantine is set (once, never cleared while open) when corruption is
	// found in one of this partition's files — by the background scrub, a
	// background job, or a foreground read. A quarantined partition rejects
	// writes and skips maintenance; reads are still attempted against
	// whatever remains readable. See quarantine.go.
	quarantine atomic.Pointer[QuarantinedError]

	stallMu sync.Mutex
	stallCh chan struct{} // closed to wake throttled writers
}

// covers reports whether key belongs to this partition.
func (p *partition) covers(key []byte) bool {
	if codec.Compare(key, p.lower) < 0 && len(p.lower) > 0 {
		return false
	}
	if p.upper != nil && codec.Compare(key, p.upper) >= 0 {
		return false
	}
	return true
}

func newMemtable() *memtable.Memtable { return memtable.New() }

// initEmptyStores sets up fresh in-memory components.
func (p *partition) initEmptyStores() error {
	p.mem = newMemtable()
	p.uns = unsorted.New(p.db.opts.HashBuckets)
	p.uns.DisableIndex = p.db.opts.DisableHashIndex
	p.uns.DisableView = p.db.opts.SortedViewOff
	p.srt = sorted.New()
	p.logs = make(map[uint32]bool)
	return nil
}

// newWALLocked creates a fresh WAL file (no manifest commit; callers batch
// the SetWAL edit). The directory entry is fsynced immediately: every
// subsequent WAL Sync only makes the file's contents durable, and an
// acknowledged write would be lost if a crash dropped the entry itself.
func (p *partition) newWALLocked() error {
	num := p.db.allocFileNum()
	f, err := p.db.fs.Create(walName(p.dir, num))
	if err != nil {
		return err
	}
	if err := p.db.fs.SyncDir(p.dir); err != nil {
		return err
	}
	p.wal = wal.NewWriter(f)
	p.walNum = num
	return nil
}

// rotateWALLocked swaps in a fresh WAL and commits the pointer change. The
// old file is removed after the commit.
func (p *partition) rotateWALLocked() error {
	oldNum := p.walNum
	if p.wal != nil {
		if err := p.wal.Sync(); err != nil {
			return err
		}
		p.wal.Close()
		p.wal = nil
	}
	if err := p.newWALLocked(); err != nil {
		return err
	}
	if err := p.db.man.Apply(
		manifest.SetWAL(p.id, p.walNum),
		manifest.LastSeq(p.db.seq.Load()),
		p.db.nextFileEdit(),
	); err != nil {
		return err
	}
	if oldNum != 0 {
		p.db.fs.Remove(walName(p.dir, oldNum))
	}
	return nil
}

// replayWAL loads the partition's WAL into the memtable.
func (p *partition) replayWAL(num uint64) error {
	f, err := p.db.fs.Open(walName(p.dir, num))
	if err != nil {
		return err
	}
	defer f.Close()
	r := wal.NewReader(f)
	for {
		data, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		for len(data) > 0 {
			var rec record.Record
			rec, data, err = record.Decode(data)
			if err != nil {
				// Torn batch tail inside a record payload: stop replay
				// here (everything before is intact).
				return nil
			}
			p.mem.Put(rec) // the memtable copies; rec aliases data
		}
	}
}

// ensureWALLocked lazily recreates the WAL after a failed rotation left
// p.wal nil (a transient fault in newWALLocked aborts the rotating write
// or flush, but the partition must not silently accept un-logged writes
// afterwards: a later crash would lose them even though they were acked).
// File numbers are monotonic, so the replacement WAL replays after the
// closed one and write order is preserved. It also retires a torn WAL.
func (p *partition) ensureWALLocked() error {
	switch {
	case p.db.opts.DisableWAL:
		return nil
	case p.wal == nil:
		return p.newWALLocked()
	case p.wal.Torn():
		return p.retireTornWALLocked()
	}
	return nil
}

// retireTornWALLocked moves the partition off a WAL whose last write left
// partial bytes in the file. Replay stops at the tear, so nothing more may
// be logged there — but everything acknowledged sits before it, which
// makes the file a valid log of exactly the live memtable. So the memtable
// leaves with it (flushed inline, or frozen for the flush worker) and the
// next write starts a fresh memtable on a fresh WAL; one WAL per memtable
// still holds. Until this succeeds the partition rejects writes.
func (p *partition) retireTornWALLocked() error {
	switch {
	case p.mem.Empty():
		return p.rotateWALLocked()
	case p.db.sched != nil:
		if err := p.freezeMemLocked(); err != nil {
			return err
		}
		p.db.sched.enqueue(p, jobFlush)
		return nil
	}
	return p.flushLocked()
}

// maxRetainedWALBuf bounds the encoding scratch a partition keeps between
// writes, so one huge batch does not pin its size.
const maxRetainedWALBuf = 1 << 20

// put applies one record. It returns true when the partition wants a split
// (checked by DB.Put, which owns the router lock ordering).
func (p *partition) put(rec record.Record) (wantSplit bool, err error) {
	return p.putBatch([]record.Record{rec})
}

// putBatch applies several records with one WAL record — they become
// durable atomically within this partition. The records may borrow caller
// memory: the WAL gets their encoding and the memtable copies them.
func (p *partition) putBatch(recs []record.Record) (wantSplit bool, err error) {
	if err := p.ensureWALLocked(); err != nil {
		return false, err
	}
	if p.wal != nil {
		buf := p.walBuf[:0]
		for _, rec := range recs {
			buf = rec.Encode(buf)
		}
		if cap(buf) <= maxRetainedWALBuf {
			p.walBuf = buf
		}
		if err := p.wal.AddRecord(buf); err != nil {
			return false, err // a torn WAL is retired by the next write's ensureWALLocked
		}
		if p.db.opts.SyncWrites {
			if err := p.wal.Sync(); err != nil {
				return false, err
			}
		}
	}
	for _, rec := range recs {
		p.mem.Put(rec)
	}
	return p.afterWriteLocked()
}

// afterWriteLocked runs the scheduling that follows a write. Inline mode
// (no scheduler): flush at MemtableSize, merge at UnsortedLimit (then
// maybe GC, then report a split wish), size-based scan merge at
// ScanMergeLimit — all synchronously, under the lock. Background mode:
// freeze the full memtable onto the immutable queue and hand everything
// else to the worker pool.
func (p *partition) afterWriteLocked() (wantSplit bool, err error) {
	if p.mem.Size() < p.db.opts.MemtableSize {
		return false, nil
	}
	if p.db.sched != nil {
		if err := p.freezeMemLocked(); err != nil {
			return false, err
		}
		p.db.sched.enqueue(p, jobFlush)
		return false, nil
	}
	if err := p.flushLocked(); err != nil {
		return false, err
	}
	if p.uns.SizeBytes() >= p.db.opts.UnsortedLimit {
		if err := p.mergeLocked(); err != nil {
			return false, err
		}
		if err := p.maybeGCLocked(); err != nil {
			return false, err
		}
		return p.sizeLocked() >= p.db.opts.PartitionSizeLimit && !p.db.opts.DisablePartitioning, nil
	}
	if !p.db.opts.DisableScanMerge && p.uns.NumTables() >= p.db.opts.ScanMergeLimit {
		if err := p.scanMergeLocked(); err != nil {
			return false, err
		}
	}
	return false, nil
}

// logBytesLocked estimates the value-log bytes attributable to this
// partition: each referenced log's size divided by its number of
// referencing partitions (a log shared after a split counts half to each
// child until their lazy value splits disentangle it).
func (p *partition) logBytesLocked() int64 {
	var size int64
	p.db.logRefs.Lock()
	for n := range p.logs {
		refs := p.db.logRefs.refs[n]
		if refs < 1 {
			refs = 1
		}
		size += p.db.vl.SizeOf(n) / int64(refs)
	}
	p.db.logRefs.Unlock()
	return size
}

// immBytesLocked sums the frozen memtables' sizes.
func (p *partition) immBytesLocked() int64 {
	var size int64
	for _, m := range p.imm {
		size += m.Size()
	}
	return size
}

// sizeLocked returns the partition's data footprint: table bytes, memtable
// bytes (live and frozen), and its attributed share of the value-log
// bytes.
func (p *partition) sizeLocked() int64 {
	return p.uns.SizeBytes() + p.srt.SizeBytes() + p.mem.Size() + p.immBytesLocked() + p.logBytesLocked()
}

// freezeMemLocked moves the full memtable (and its WAL) onto the immutable
// queue and installs a fresh memtable + WAL. No manifest edit happens
// here: file numbers are allocated monotonically, so recovery replays the
// committed WAL plus every later-numbered WAL file in the directory, and
// each flush commit advances the manifest pointer to the oldest WAL still
// holding unflushed data.
func (p *partition) freezeMemLocked() error {
	if p.mem.Empty() {
		return nil
	}
	frozenWAL := p.walNum
	if p.wal != nil {
		if err := p.wal.Sync(); err != nil {
			return err
		}
		p.wal.Close()
		p.wal = nil
		if err := p.newWALLocked(); err != nil {
			return err
		}
	} else {
		frozenWAL = 0
	}
	p.imm = append(p.imm, p.mem)
	p.immWALs = append(p.immWALs, frozenWAL)
	p.mem = newMemtable()
	return nil
}

// buildTable writes mem's live records into a new table file and opens a
// reader over it. It only touches fresh files and the given (frozen or
// caller-locked) memtable, so background flushes run it without p.mu.
// Alongside the table it returns the key list for the hash index and, when
// the sorted view is enabled, the view entries collected in the same pass
// (Builder.NextPosition yields each record's cursor before it is written),
// so the flush commit extends the view without re-reading the file.
func (p *partition) buildTable(mem *memtable.Memtable) (*unsorted.Table, [][]byte, []sortedview.Entry, error) {
	num := p.db.allocFileNum()
	name := tableName(p.dir, num)
	f, err := p.db.fs.Create(name)
	if err != nil {
		return nil, nil, nil, err
	}
	b := sstable.NewBuilder(f, sstable.BuilderOptions{BlockSize: p.db.opts.BlockSize})
	collect := !p.db.opts.SortedViewOff
	keys := make([][]byte, 0, mem.Len())
	var entries []sortedview.Entry
	// View entries outlive the memtable and must not pin its slabs: their
	// keys are copied into one arena per table.
	var keyArena arena.Bytes
	if collect {
		entries = make([]sortedview.Entry, 0, mem.Len())
	}
	it := mem.NewIterator()
	var last []byte
	for ok := it.First(); ok; ok = it.Next() {
		rec := it.Record()
		if last != nil && codec.Compare(rec.Key, last) == 0 {
			continue // older version of the same key
		}
		last = rec.Key
		k := rec.Key
		if collect {
			k = keyArena.Copy(rec.Key)
			block, pos := b.NextPosition()
			entries = append(entries, sortedview.Entry{
				Key: k, Seq: rec.Seq, Kind: rec.Kind,
				Block: int32(block), Pos: int32(pos),
			})
		}
		b.Add(rec)
		keys = append(keys, k)
	}
	props, err := b.Finish()
	if err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	if err := f.Close(); err != nil {
		return nil, nil, nil, err
	}
	rf, err := p.db.fs.Open(name)
	if err != nil {
		return nil, nil, nil, err
	}
	rdr, err := sstable.Open(rf)
	if err != nil {
		rf.Close()
		return nil, nil, nil, err
	}
	rdr.SetCache(p.db.cache, num)
	meta := manifest.TableMeta{
		FileNum: num, Size: props.Size, Count: props.Count,
		Smallest: props.Smallest, Largest: props.Largest,
		MinSeq: props.MinSeq, MaxSeq: props.MaxSeq,
	}
	return &unsorted.Table{Meta: meta, Reader: rdr}, keys, entries, nil
}

// flushLocked writes the live memtable to a new UnsortedStore table,
// commits it, rotates the WAL, and checkpoints the hash index on schedule.
func (p *partition) flushLocked() error {
	if p.mem.Empty() {
		return nil
	}
	tbl, keys, entries, err := p.buildTable(p.mem)
	if err != nil {
		return err
	}

	// Rotate the WAL under the same commit so replay never duplicates the
	// flushed data.
	oldWAL := p.walNum
	edits := []manifest.Edit{
		manifest.AddUnsorted(p.id, tbl.Meta),
		manifest.LastSeq(p.db.seq.Load()),
	}
	if p.wal != nil {
		p.wal.Sync()
		p.wal.Close()
		p.wal = nil
	}
	if !p.db.opts.DisableWAL {
		if err := p.newWALLocked(); err != nil {
			return err
		}
		edits = append(edits, manifest.SetWAL(p.id, p.walNum))
	}
	edits = append(edits, p.db.nextFileEdit())
	// Make the new table's directory entry durable before the manifest
	// commit references it.
	if err := p.db.fs.SyncDir(p.dir); err != nil {
		return err
	}
	if err := p.db.man.Apply(edits...); err != nil {
		return err
	}
	if oldWAL != 0 {
		p.db.fs.Remove(walName(p.dir, oldWAL))
	}
	if err := p.uns.AddTable(tbl, keys, entries); err != nil {
		return err
	}
	p.mem = newMemtable()
	p.db.stats.Flushes.Add(1)

	// Periodic hash-index checkpoint (paper: every UnsortedLimit/2 worth
	// of flushed tables).
	p.flushesSinceCkpt++
	if !p.db.opts.DisableHashCkpt && p.flushesSinceCkpt >= p.db.opts.HashCheckpointEvery {
		if err := p.checkpointHashLocked(); err != nil {
			return err
		}
	}
	return nil
}

// commitImmLocked installs a table built from the oldest frozen memtable:
// one manifest batch adds the table and advances the WAL pointer to the
// oldest WAL still holding unflushed data, then the memtable leaves the
// queue and its WAL file is removed. Requires p.mu held for writing.
func (p *partition) commitImmLocked(tbl *unsorted.Table, keys [][]byte, entries []sortedview.Entry) error {
	oldWAL := p.immWALs[0]
	nextWAL := p.walNum
	if len(p.immWALs) > 1 {
		nextWAL = p.immWALs[1]
	}
	edits := []manifest.Edit{
		manifest.AddUnsorted(p.id, tbl.Meta),
		manifest.LastSeq(p.db.seq.Load()),
	}
	if nextWAL != 0 {
		edits = append(edits, manifest.SetWAL(p.id, nextWAL))
	}
	edits = append(edits, p.db.nextFileEdit())
	if err := p.db.fs.SyncDir(p.dir); err != nil {
		tbl.Reader.Close()
		return err
	}
	if err := p.db.man.Apply(edits...); err != nil {
		tbl.Reader.Close()
		return err
	}
	if err := p.uns.AddTable(tbl, keys, entries); err != nil {
		return err
	}
	p.imm = p.imm[1:]
	p.immWALs = p.immWALs[1:]
	if oldWAL != 0 {
		p.db.fs.Remove(walName(p.dir, oldWAL))
	}
	p.db.stats.Flushes.Add(1)
	p.flushesSinceCkpt++
	if !p.db.opts.DisableHashCkpt && p.flushesSinceCkpt >= p.db.opts.HashCheckpointEvery {
		if err := p.checkpointHashLocked(); err != nil {
			return err
		}
	}
	return nil
}

// backgroundFlush is the flush job: it builds the table from the oldest
// frozen memtable without the partition lock (readers keep hitting the
// frozen memtable meanwhile) and takes the lock only to commit.
func (p *partition) backgroundFlush() error {
	p.flushMu.Lock()
	defer p.flushMu.Unlock()
	p.mu.RLock()
	if len(p.imm) == 0 {
		p.mu.RUnlock()
		return nil
	}
	mem := p.imm[0]
	p.mu.RUnlock()

	tbl, keys, entries, err := p.buildTable(mem)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.commitImmLocked(tbl, keys, entries)
}

// drainImmLocked flushes every frozen memtable, oldest first. Requires
// p.mu; callers racing the worker pool (Flush, CompactAll, split) must
// also hold flushMu so no flush job is mid-build.
func (p *partition) drainImmLocked() error {
	for len(p.imm) > 0 {
		tbl, keys, entries, err := p.buildTable(p.imm[0])
		if err != nil {
			return err
		}
		if err := p.commitImmLocked(tbl, keys, entries); err != nil {
			return err
		}
	}
	return nil
}

// checkpointHashLocked persists the hash index and commits the pointer.
func (p *partition) checkpointHashLocked() error {
	num := p.db.allocFileNum()
	if err := p.uns.Checkpoint(p.db.fs, ckptName(p.dir, num)); err != nil {
		return err
	}
	old := p.hashCkpt
	if err := p.db.fs.SyncDir(p.dir); err != nil {
		return err
	}
	if err := p.db.man.Apply(
		manifest.SetHashCkpt(p.id, num),
		p.db.nextFileEdit(),
	); err != nil {
		return err
	}
	p.hashCkpt = num
	p.flushesSinceCkpt = 0
	if old != 0 {
		p.db.fs.Remove(ckptName(p.dir, old))
	}
	return nil
}

// closeTablesLocked releases all table readers (Close path).
func (p *partition) closeTablesLocked() {
	for _, t := range p.uns.Tables() {
		t.Reader.Close()
	}
	for _, t := range p.srt.Tables() {
		t.Reader.Close()
	}
}

// logsSliceLocked returns the referenced log set as a sorted slice for
// manifest edits.
func (p *partition) logsSliceLocked() []uint32 {
	out := make([]uint32, 0, len(p.logs))
	for n := range p.logs {
		out = append(out, n)
	}
	// insertion sort; sets are small
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// recoverUnsorted restores a partition's UnsortedStore.
func (db *DB) recoverUnsorted(
	meta *manifest.PartitionMeta,
	ckpt string,
	openTable func(manifest.TableMeta) (*sstable.Reader, error),
) (*unsorted.Store, error) {
	if db.opts.DisableHashIndex {
		s := unsorted.New(db.opts.HashBuckets)
		s.DisableIndex = true
		s.DisableView = db.opts.SortedViewOff
		if len(meta.Unsorted) > 0 {
			// Like unsorted.Recover: defer the view rebuild to the first
			// scan so recovery reads no table bytes here.
			s.MarkViewStale()
		}
		for _, tm := range meta.Unsorted {
			rdr, err := openTable(tm)
			if err != nil {
				return nil, err
			}
			if err := s.AddTable(&unsorted.Table{Meta: tm, Reader: rdr}, nil, nil); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
	return unsorted.Recover(db.fs, db.opts.HashBuckets, meta.Unsorted, ckpt, db.opts.SortedViewOff, openTable)
}

// recoverSorted restores a partition's SortedStore.
func recoverSorted(
	meta *manifest.PartitionMeta,
	openTable func(manifest.TableMeta) (*sstable.Reader, error),
) (*sorted.Store, error) {
	s := sorted.New()
	tables := make([]*sorted.Table, 0, len(meta.Sorted))
	for _, tm := range meta.Sorted {
		rdr, err := openTable(tm)
		if err != nil {
			return nil, err
		}
		tables = append(tables, &sorted.Table{Meta: tm, Reader: rdr})
	}
	s.ReplaceAll(tables)
	return s, nil
}
