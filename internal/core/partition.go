package core

import (
	"io"
	"sync"
	"sync/atomic"

	"unikv/internal/arena"
	"unikv/internal/manifest"
	"unikv/internal/memtable"
	"unikv/internal/record"
	"unikv/internal/sorted"
	"unikv/internal/sortedview"
	"unikv/internal/sstable"
	"unikv/internal/unsorted"
	"unikv/internal/vfs"
	"unikv/internal/wal"
)

// partition is one range partition: a WAL and the published version naming
// its memtables, UnsortedStore, SortedStore and value logs (see version.go).
// mu serializes what changes the partition: the WAL (append, sync, rotation),
// memtable insertion, sequence assignment, and installing a version with the
// manifest batch that commits it.
// Nobody reads or writes a table while holding it, and reads take no
// partition lock at all.
type partition struct {
	db    *DB
	id    uint32
	dir   string
	lower []byte // inclusive; nil/empty = -inf; fixed at creation

	// maintMu serializes structural jobs (merge/scan-merge/GC/split) on
	// this partition; flushMu serializes flushes (a flush may run
	// concurrently with a structural job, but not with a split, a
	// user-driven Flush draining the immutable queue, or the moment a
	// structural job derives the UnsortedStore for its commit). Both are
	// acquired before mu; see scheduler.go for the full lock order.
	maintMu sync.Mutex
	flushMu sync.Mutex

	// cur is the current version, stored only by publish.
	cur atomic.Pointer[version]
	// viewBuilding is held by the scan building the sorted view recovery
	// left unbuilt (see scanView).
	viewBuilding atomic.Bool
	// noSplit is the size at which a split last found fewer than two live
	// keys (one value over the size limit, or a share of logs the partition
	// no longer uses). The split trigger holds still while the size stays
	// there; the pool would otherwise re-arm the split behind itself
	// forever.
	noSplit atomic.Int64

	mu     sync.Mutex
	wal    *wal.Writer // the live memtable's WAL, open for appends
	walBuf []byte      // WAL record encoding scratch, reused under mu
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
	return &version{p: p, upper: upper, mem: newMemtable(), wals: []uint64{0},
		uns: unsorted.New(opts.HashBuckets, opts.exp.DisableHashIndex, opts.exp.SortedViewOff),
		srt: sorted.New(nil)}
}

// newWALLocked creates a fresh WAL file for the live memtable of next, the
// version to be published (callers batch the SetWAL edit). The directory
// entry is fsynced at once: a WAL Sync makes only the contents durable.
func (p *partition) newWALLocked(next *version) error {
	num := p.db.allocFileNum()
	f, err := p.db.fs.Create(walName(p.dir, num))
	if err != nil {
		return err
	}
	if err := p.db.fs.SyncDir(p.dir); err != nil {
		return err
	}
	p.wal = wal.NewWriter(f)
	last := len(next.wals) - 1
	next.wals = append(next.wals[:last:last], num)
	return nil
}

// rotateWALLocked moves the empty live memtable onto a fresh WAL and
// commits the pointer to the oldest WAL still holding unflushed data; the
// version it publishes no longer names the memtable's old WALs.
func (p *partition) rotateWALLocked() error {
	if p.wal != nil {
		if err := p.wal.Sync(); err != nil {
			return err
		}
		p.wal.Close()
		p.wal = nil
	}
	next := p.cur.Load().successor()
	if err := p.newWALLocked(next); err != nil {
		return err
	}
	if err := p.db.man.Apply(
		manifest.SetWAL(p.id, next.wals[0]),
		manifest.LastSeq(p.db.seq.Load()),
		p.db.nextFileEdit(),
	); err != nil {
		return err
	}
	p.publish(next)
	return nil
}

// replayWAL loads the WAL file name into mem. A torn tail ends the replay
// without an error; what was read before an error stays in mem.
func replayWAL(fs vfs.FS, name string, mem *memtable.Memtable) error {
	f, err := fs.Open(name)
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

// ensureWALLocked moves the partition onto a fresh WAL when it has none
// open — a transient fault in newWALLocked aborted a freeze or rotation, and
// an un-logged write must not be acked — or when the last write left partial
// bytes in its WAL, past which replay stops. Either file is a valid log of
// exactly the live memtable, so the memtable is frozen with it (rotated off
// it when empty) and the write goes on into a fresh memtable on a fresh WAL;
// one WAL per memtable still holds. Until this succeeds writes fail.
func (p *partition) ensureWALLocked() error {
	switch {
	case p.wal != nil && !p.wal.Torn():
		return nil
	case p.cur.Load().mem.Empty():
		return p.rotateWALLocked()
	}
	return p.freezeMemLocked()
}

// maxRetainedWALBuf bounds the encoding scratch a partition keeps between
// writes, so one huge batch does not pin its size.
const maxRetainedWALBuf = 1 << 20

// putBatch applies several records with one WAL record — they become
// durable atomically within this partition — and freezes the memtable if
// that filled it; the caller, which holds p.mu, sees the version move and
// has the flush submitted once it let go (DB.written). The records may
// borrow caller memory: the WAL gets their encoding and the memtable copies
// them.
func (p *partition) putBatch(recs []record.Record) error {
	if err := p.ensureWALLocked(); err != nil {
		return err
	}
	buf := p.walBuf[:0]
	for _, rec := range recs {
		buf = rec.Encode(buf)
	}
	if cap(buf) <= maxRetainedWALBuf {
		p.walBuf = buf
	}
	if err := p.wal.AddRecord(buf); err != nil {
		return err // a torn WAL is retired by the next write's ensureWALLocked
	}
	if p.db.opts.SyncWrites {
		if err := p.wal.Sync(); err != nil {
			return err
		}
	}
	mem := p.cur.Load().mem // after ensureWALLocked, which may publish
	for _, rec := range recs {
		mem.Put(rec)
	}
	if mem.Size() < p.db.opts.MemtableSize {
		return nil
	}
	return p.freezeMemLocked()
}

// freezeMemLocked moves the live memtable (and its WAL) onto the immutable
// queue and installs a fresh memtable + WAL; flushing it is a job, which
// whoever holds p.mu submits after letting go. No manifest edit happens
// here: file numbers are allocated monotonically, so recovery replays the
// committed WAL plus every later-numbered WAL file in the directory, and
// each flush commit advances the manifest pointer to the oldest WAL still
// holding unflushed data.
func (p *partition) freezeMemLocked() error {
	v := p.cur.Load()
	if v.mem.Empty() {
		return nil
	}
	if p.wal != nil {
		if err := p.wal.Sync(); err != nil {
			return err
		}
		p.wal.Close()
		p.wal = nil
	}
	next := v.successor()
	next.imm = append(v.imm[:len(v.imm):len(v.imm)], v.mem)
	next.mem, next.wals = newMemtable(), append(v.wals[:len(v.wals):len(v.wals)], 0)
	if err := p.newWALLocked(next); err != nil {
		return err
	}
	p.publish(next)
	return nil
}

// buildTable writes the newest record of each key in mem — walked as a merge
// of one input, the stream eachNewest takes — to a new table through the
// job's writer. It only touches fresh files and the given frozen memtable,
// so it needs no lock. Alongside the table it returns what the collector
// gathered, so the flush commit extends the store without re-reading the
// file.
func (p *partition) buildTable(j *job, mem *memtable.Memtable) (*sorted.Table, *collector, error) {
	w := p.newTableWriter(j, 0)
	defer w.abort()
	c := p.newCollector(w, mem.Len())
	if err := eachNewest(newMergeIter([]recIter{mem.NewIterator()}), false, nil, c.add); err != nil {
		return nil, nil, err
	}
	tables, err := w.finish()
	if err != nil {
		return nil, nil, err
	}
	return tables[0], c, nil // a frozen memtable is never empty
}

// collector writes a flushed or scan-merged table through its writer and
// gathers, from where the writer placed each record, the table's keys for
// the hash index and, when the sorted view is enabled, its view entries:
// what unsorted.Store.WithTable and Replace take instead of reading the
// table.
type collector struct {
	w       *tableWriter
	keys    [][]byte
	entries []sortedview.Entry
	view    bool
	// Keys and view entries outlive the job's inputs and must not pin a
	// memtable's slabs or a scan merge's input blocks: their keys are
	// copied into one arena per table.
	keyArena arena.Bytes
}

// newCollector sizes the collector for about n records.
func (p *partition) newCollector(w *tableWriter, n int) *collector {
	c := &collector{w: w, keys: make([][]byte, 0, n), view: !p.db.opts.exp.SortedViewOff}
	if c.view {
		c.entries = make([]sortedview.Entry, 0, n)
	}
	return c
}

// add writes rec and collects it.
func (c *collector) add(rec record.Record) error {
	block, pos, err := c.w.add(rec)
	if err != nil {
		return err
	}
	k := c.keyArena.Copy(rec.Key)
	if c.view {
		c.entries = append(c.entries, sortedview.Entry{
			Key: k, Seq: rec.Seq, Kind: rec.Kind,
			Block: int32(block), Pos: int32(pos),
		})
	}
	c.keys = append(c.keys, k)
	return nil
}

// flushAll freezes the live memtable and flushes the whole immutable queue,
// oldest first: what Flush, CompactAll, Close and recovery mean by "flush".
func (p *partition) flushAll() error {
	p.flushMu.Lock()
	defer p.flushMu.Unlock()
	p.mu.Lock()
	err := p.freezeMemLocked()
	p.mu.Unlock()
	if err != nil {
		return err
	}
	return p.drainImm()
}

// drainImm flushes every frozen memtable. Requires flushMu.
func (p *partition) drainImm() error {
	for {
		if more, err := p.flushNext(); !more || err != nil {
			return err
		}
	}
}

// flushJob flushes the oldest frozen memtable, if there is one.
func (p *partition) flushJob() error {
	p.flushMu.Lock()
	defer p.flushMu.Unlock()
	_, err := p.flushNext()
	return err
}

// flushNext pins the current version and flushes its oldest frozen memtable;
// false means the queue was empty. Requires flushMu.
func (p *partition) flushNext() (bool, error) {
	v := p.acquire()
	defer v.release()
	if len(v.imm) == 0 {
		return false, nil
	}
	return true, p.flushOldest(v)
}

// flushOldest is the body of a flush: it writes pinned v's oldest frozen
// memtable to a new UnsortedStore table, extends the store and syncs the
// directory entry with no partition lock held — readers keep hitting the
// frozen memtable meanwhile — and takes the lock to commit: one manifest
// batch adds the table and advances the WAL pointer to the oldest WAL still
// holding unflushed data, and the memtable and its WAL leave the version.
// The hash index is checkpointed on schedule behind it (the paper: every
// UnsortedLimit/2 worth of flushed tables). Requires flushMu.
func (p *partition) flushOldest(v *version) error {
	j := p.db.beginJob()
	defer p.db.endJob(j)
	tbl, c, err := p.buildTable(j, v.imm[0])
	if err != nil {
		return err
	}
	uns, err := v.uns.WithTable(tbl, c.keys, c.entries)
	if err != nil {
		return err
	}
	// Make the new table's directory entry durable before the manifest
	// commit references it.
	if err := p.db.fs.SyncDir(p.dir); err != nil {
		return err
	}
	p.mu.Lock()
	cur := p.cur.Load()
	if cur.uns != v.uns {
		// A structural job, or the first scan's view, replaced the store
		// while the table was built: extend the current one. In memory.
		uns, err = cur.uns.WithTable(tbl, c.keys, c.entries)
	}
	next := cur.successor()
	next.imm, next.uns, next.wals = cur.imm[1:], uns, cur.wals[1:]
	extra := []manifest.Edit{manifest.LastSeq(p.db.seq.Load()), p.db.nextFileEdit(), manifest.SetWAL(p.id, next.wals[0])}
	if next.wals[0] == 0 {
		extra = extra[:2]
	}
	if err == nil {
		if err = p.commit(next, extra...); err == nil {
			p.db.stats.Flushes.Add(1)
			p.flushesSinceCkpt++
		}
	}
	due := err == nil && p.db.opts.exp.HashCheckpointEvery > 0 && p.flushesSinceCkpt >= p.db.opts.exp.HashCheckpointEvery
	p.mu.Unlock()
	if due {
		err = p.checkpointHash(j)
	}
	return err
}

// checkpointHash writes the current UnsortedStore's hash index to a new
// checkpoint file, which j names, under flushMu alone — it keeps every change
// of the table list out — and takes the partition lock only to commit the
// pointer and publish the version naming the file.
func (p *partition) checkpointHash(j *job) error {
	db := p.db
	num := db.allocFileNum()
	db.name(j, p.file(fileCkpt, num))
	if err := p.cur.Load().uns.Checkpoint(db.fs, ckptName(p.dir, num)); err != nil {
		return err
	}
	if err := db.fs.SyncDir(p.dir); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := db.man.Apply(manifest.SetHashCkpt(p.id, num), db.nextFileEdit()); err != nil {
		return err
	}
	next := p.cur.Load().successor()
	next.ckpt = num
	p.publish(next)
	p.flushesSinceCkpt = 0
	return nil
}

// tableMeta is the manifest entry of table num, just built with props.
func tableMeta(num uint64, props sstable.Props) manifest.TableMeta {
	return manifest.TableMeta{
		FileNum: num, Size: props.Size, Count: props.Count,
		Smallest: props.Smallest, Largest: props.Largest,
		MinSeq: props.MinSeq, MaxSeq: props.MaxSeq,
	}
}

// openTable opens the partition's table tm. The reader belongs to the
// live-file registry, which closes it when the file goes.
func (p *partition) openTable(tm manifest.TableMeta) (*sstable.Reader, error) {
	db := p.db
	f, err := db.fs.Open(tableName(p.dir, tm.FileNum))
	if err != nil {
		return nil, err
	}
	rdr, err := sstable.Open(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	rdr.SetCache(db.cache, tm.FileNum)
	db.liveFiles.Lock()
	db.liveFiles.readers[p.file(fileTable, tm.FileNum)] = rdr
	db.liveFiles.Unlock()
	return rdr, nil
}
