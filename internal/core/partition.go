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

// partition is one range partition: a WAL and the published version naming
// its memtables, UnsortedStore, SortedStore and value logs (see version.go).
// mu serializes what changes the partition — the WAL, memtable insertion,
// sequence assignment, installing a version; reads take no partition lock.
type partition struct {
	db    *DB
	id    uint32
	dir   string
	lower []byte // inclusive; nil/empty = -inf; fixed at creation

	// maintMu serializes structural background jobs (merge/scan-merge/
	// GC/split) on this partition; flushMu serializes flushes (a flush
	// may run concurrently with a structural job, but not with a split,
	// a user-driven Flush draining the immutable queue, or the moment a
	// structural job rebuilds the UnsortedStore for its commit). Both are
	// acquired before mu; see scheduler.go for the full lock order.
	maintMu sync.Mutex
	flushMu sync.Mutex

	// cur is the current version, stored only by publish.
	cur atomic.Pointer[version]

	mu       sync.RWMutex
	immWALs  []uint64 // WAL file per frozen memtable of cur.imm (0 = none)
	wal      *wal.Writer
	walNum   uint64
	walBuf   []byte // WAL record encoding scratch, reused under mu
	hashCkpt uint64 // current checkpoint file number (0 = none)
	// splitting is non-nil while the partition splits: a writer that finds
	// it lets go of mu, waits for it to be closed and routes again.
	splitting chan struct{}

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

func newMemtable() *memtable.Memtable { return memtable.New() }

// emptyVersion returns an unpublished version with fresh, empty components
// up to upper.
func (p *partition) emptyVersion(upper []byte) *version {
	opts := &p.db.opts
	return &version{p: p, upper: upper, mem: newMemtable(),
		uns: unsorted.New(opts.HashBuckets, opts.DisableHashIndex, opts.SortedViewOff),
		srt: sorted.New(nil)}
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

// replayWAL loads WAL file num into mem.
func (p *partition) replayWAL(num uint64, mem *memtable.Memtable) error {
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
			mem.Put(rec) // the memtable copies; rec aliases data
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
	case p.cur.Load().mem.Empty():
		return p.rotateWALLocked()
	case p.db.sched != nil:
		return p.freezeMemLocked()
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
	mem := p.cur.Load().mem // after ensureWALLocked, which may publish
	for _, rec := range recs {
		mem.Put(rec)
	}
	return p.afterWriteLocked()
}

// afterWriteLocked runs the scheduling that follows a write, once the
// memtable is full. Inline mode (no scheduler): flush, then merge at
// UnsortedLimit (then maybe GC, then report a split wish) or a size-based
// scan merge at ScanMergeLimit — all synchronously, under the lock.
// Background mode: freeze the memtable onto the immutable queue and hand
// everything else to the worker pool. Each step publishes a version, and
// the triggers are read off the version it published.
func (p *partition) afterWriteLocked() (wantSplit bool, err error) {
	opts := &p.db.opts
	if p.cur.Load().mem.Size() < opts.MemtableSize {
		return false, nil
	}
	if p.db.sched != nil {
		return false, p.freezeMemLocked()
	}
	if err := p.flushLocked(); err != nil {
		return false, err
	}
	v := p.cur.Load()
	if v.unsBytes >= opts.UnsortedLimit {
		if err := p.mergeLocked(); err != nil {
			return false, err
		}
		if err := p.maybeGCLocked(); err != nil {
			return false, err
		}
		return p.cur.Load().size >= opts.PartitionSizeLimit && !opts.DisablePartitioning, nil
	}
	if !opts.DisableScanMerge && v.unsTables >= opts.ScanMergeLimit {
		return false, p.scanMergeLocked()
	}
	return false, nil
}

// freezeMemLocked moves the live memtable (and its WAL) onto the immutable
// queue, installs a fresh memtable + WAL, and — background mode's trigger
// point on the write path — has the scheduler look at the version this
// published, which queues the flush. No manifest edit happens here: file
// numbers are allocated monotonically, so recovery replays the committed
// WAL plus every later-numbered WAL file in the directory, and each flush
// commit advances the manifest pointer to the oldest WAL still holding
// unflushed data.
func (p *partition) freezeMemLocked() error {
	v := p.cur.Load()
	if v.mem.Empty() {
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
	next := v.successor()
	next.imm = append(v.imm[:len(v.imm):len(v.imm)], v.mem)
	next.mem = newMemtable()
	p.immWALs = append(p.immWALs, frozenWAL)
	p.publish(next)
	p.db.checkMaintenance(p)
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
	meta := tableMeta(num, props)
	rdr, err := p.db.openTable(p.dir, meta)
	if err != nil {
		return nil, nil, nil, err
	}
	return &unsorted.Table{Meta: meta, Reader: rdr}, keys, entries, nil
}

// flushLocked writes the live memtable to a new UnsortedStore table,
// commits it, rotates the WAL, and checkpoints the hash index on schedule.
func (p *partition) flushLocked() error {
	v := p.cur.Load()
	if v.mem.Empty() {
		return nil
	}
	tbl, keys, entries, err := p.buildTable(v.mem)
	if err != nil {
		return err
	}
	defer tbl.Reader.Close() // the build's reference; the version holds its own
	uns, err := v.uns.WithTable(tbl, keys, entries)
	if err != nil {
		return err
	}

	// Rotate the WAL under the same commit so replay never duplicates the
	// flushed data.
	oldWAL := p.walNum
	var setWAL []manifest.Edit
	if p.wal != nil {
		p.wal.Sync()
		p.wal.Close()
		p.wal = nil
	}
	if !p.db.opts.DisableWAL {
		if err := p.newWALLocked(); err != nil {
			return err
		}
		setWAL = append(setWAL, manifest.SetWAL(p.id, p.walNum))
	}
	// Make the new table's directory entry durable before the manifest
	// commit references it.
	if err := p.db.fs.SyncDir(p.dir); err != nil {
		return err
	}
	next := v.successor()
	next.mem, next.uns = newMemtable(), uns
	return p.commitFlushLocked(next, tbl, setWAL, oldWAL)
}

// commitFlushLocked commits a flushed table — one manifest batch adds it
// and moves the WAL pointer — then publishes next, removes the WAL the
// table made redundant and checkpoints the hash index on schedule (the
// paper: every UnsortedLimit/2 worth of flushed tables). Requires p.mu held
// for writing and the table's directory entry synced.
func (p *partition) commitFlushLocked(next *version, tbl *unsorted.Table, setWAL []manifest.Edit, oldWAL uint64) error {
	edits := append([]manifest.Edit{
		manifest.AddUnsorted(p.id, tbl.Meta),
		manifest.LastSeq(p.db.seq.Load()),
	}, setWAL...)
	if err := p.db.man.Apply(append(edits, p.db.nextFileEdit())...); err != nil {
		return err
	}
	p.immWALs = p.immWALs[len(p.immWALs)-len(next.imm):] // a flushed memtable's WAL leaves with it
	p.publish(next)
	if oldWAL != 0 {
		p.db.fs.Remove(walName(p.dir, oldWAL))
	}
	p.db.stats.Flushes.Add(1)
	p.flushesSinceCkpt++
	if p.db.opts.DisableHashCkpt || p.flushesSinceCkpt < p.db.opts.HashCheckpointEvery {
		return nil
	}
	return p.checkpointHashLocked()
}

// backgroundFlush is the flush job.
func (p *partition) backgroundFlush() error {
	p.flushMu.Lock()
	defer p.flushMu.Unlock()
	v := p.acquire()
	defer v.release()
	if len(v.imm) == 0 {
		return nil
	}
	return p.flushImm(v, false)
}

// drainImmLocked flushes every frozen memtable, oldest first. Requires
// p.mu; callers racing the worker pool (Flush, CompactAll, split) must
// also hold flushMu so no flush job is mid-build.
func (p *partition) drainImmLocked() error {
	for v := p.cur.Load(); len(v.imm) > 0; v = p.cur.Load() {
		if err := p.flushImm(v, true); err != nil {
			return err
		}
	}
	return nil
}

// flushImm flushes v's oldest frozen memtable: it builds the table, extends
// the UnsortedStore and syncs the directory entry — without the partition
// lock unless the caller already holds it (locked); readers keep hitting
// the frozen memtable meanwhile — and takes the lock only to commit: the
// manifest's WAL pointer advances to the oldest WAL still holding unflushed
// data and the memtable leaves the queue.
func (p *partition) flushImm(v *version, locked bool) error {
	tbl, keys, entries, err := p.buildTable(v.imm[0])
	if err != nil {
		return err
	}
	defer tbl.Reader.Close()
	uns, err := v.uns.WithTable(tbl, keys, entries)
	if err != nil {
		return err
	}
	if err := p.db.fs.SyncDir(p.dir); err != nil {
		return err
	}
	if !locked {
		p.mu.Lock()
		defer p.mu.Unlock()
	}
	cur := p.cur.Load()
	if cur.uns != v.uns {
		// A structural job, or the first scan's view, replaced the store
		// while the table was built: extend the current one. In memory.
		if uns, err = cur.uns.WithTable(tbl, keys, entries); err != nil {
			return err
		}
	}
	var setWAL []manifest.Edit
	nextWAL := p.walNum
	if len(p.immWALs) > 1 {
		nextWAL = p.immWALs[1]
	}
	if nextWAL != 0 {
		setWAL = append(setWAL, manifest.SetWAL(p.id, nextWAL))
	}
	next := cur.successor()
	next.imm, next.uns = cur.imm[1:], uns
	return p.commitFlushLocked(next, tbl, setWAL, p.immWALs[0])
}

// checkpointHashLocked persists the hash index and commits the pointer.
func (p *partition) checkpointHashLocked() error {
	num := p.db.allocFileNum()
	if err := p.cur.Load().uns.Checkpoint(p.db.fs, ckptName(p.dir, num)); err != nil {
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

// dropHashCkptLocked forgets the hash checkpoint a commit that replaced the
// UnsortedStore's tables (and set the manifest's pointer to 0) made stale.
func (p *partition) dropHashCkptLocked() {
	if p.hashCkpt != 0 {
		p.db.fs.Remove(ckptName(p.dir, p.hashCkpt))
	}
	p.hashCkpt = 0
	p.flushesSinceCkpt = 0
}

// markObsolete arranges for a table the current commit replaced to be
// deleted when its last holder — the version being replaced, or an older
// one a reader or snapshot still pins — lets go of it. Call it before the
// publish that drops the table. Removal is best effort; the orphan sweep
// covers failures.
func (db *DB) markObsolete(dir string, num uint64, r *sstable.Reader) {
	fs, name := db.fs, tableName(dir, num)
	r.SetRetire(func() { fs.Remove(name) })
}

// tableMeta is the manifest entry of table num, just built with props.
func tableMeta(num uint64, props sstable.Props) manifest.TableMeta {
	return manifest.TableMeta{
		FileNum: num, Size: props.Size, Count: props.Count,
		Smallest: props.Smallest, Largest: props.Largest,
		MinSeq: props.MinSeq, MaxSeq: props.MaxSeq,
	}
}

// openTable opens table tm of the partition directory pdir.
func (db *DB) openTable(pdir string, tm manifest.TableMeta) (*sstable.Reader, error) {
	f, err := db.fs.Open(tableName(pdir, tm.FileNum))
	if err != nil {
		return nil, err
	}
	rdr, err := sstable.Open(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	rdr.SetCache(db.cache, tm.FileNum)
	return rdr, nil
}
