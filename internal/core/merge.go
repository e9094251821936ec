package core

import (
	"unikv/internal/codec"
	"unikv/internal/manifest"
	"unikv/internal/mergeiter"
	"unikv/internal/record"
	"unikv/internal/sorted"
	"unikv/internal/sstable"
	"unikv/internal/unsorted"
	"unikv/internal/vlog"
)

// recIter and mergeIter come from the shared mergeiter package (the
// baseline LSM engines reuse the same machinery).
type (
	recIter   = mergeiter.RecIter
	mergeIter = mergeiter.Iter
)

func newMergeIter(iters []recIter) *mergeIter { return mergeiter.New(iters) }

// ---------------------------------------------------------------------------
// tableWriter emits a series of SortedStore tables capped at
// TargetTableSize each.

type tableWriter struct {
	p      *partition
	dir    string
	tables []*sorted.Table
	b      *sstable.Builder
	f      interface {
		Close() error
	}
	num      uint64
	fileNums []uint64
}

func (p *partition) newTableWriter(dir string) *tableWriter {
	return &tableWriter{p: p, dir: dir}
}

func (w *tableWriter) add(rec record.Record) error {
	if w.b == nil {
		w.num = w.p.db.allocFileNum()
		f, err := w.p.db.fs.Create(tableName(w.dir, w.num))
		if err != nil {
			return err
		}
		w.f = f
		w.b = sstable.NewBuilder(f, sstable.BuilderOptions{BlockSize: w.p.db.opts.BlockSize})
	}
	w.b.Add(rec)
	if w.b.EstimatedSize() >= w.p.db.opts.TargetTableSize {
		return w.roll()
	}
	return nil
}

// roll finishes the current table and opens its reader.
func (w *tableWriter) roll() error {
	if w.b == nil {
		return nil
	}
	props, err := w.b.Finish()
	if err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	rf, err := w.p.db.fs.Open(tableName(w.dir, w.num))
	if err != nil {
		return err
	}
	rdr, err := sstable.Open(rf)
	if err != nil {
		rf.Close()
		return err
	}
	rdr.SetCache(w.p.db.cache, w.num)
	w.tables = append(w.tables, &sorted.Table{
		Meta: manifest.TableMeta{
			FileNum: w.num, Size: props.Size, Count: props.Count,
			Smallest: props.Smallest, Largest: props.Largest,
			MinSeq: props.MinSeq, MaxSeq: props.MaxSeq,
		},
		Reader: rdr,
	})
	w.fileNums = append(w.fileNums, w.num)
	w.b = nil
	w.f = nil
	return nil
}

// finish flushes the trailing table and returns the run.
func (w *tableWriter) finish() ([]*sorted.Table, error) {
	if err := w.roll(); err != nil {
		return nil, err
	}
	return w.tables, nil
}

// metas extracts the manifest metadata of the written tables.
func tableMetas(tables []*sorted.Table) []manifest.TableMeta {
	out := make([]manifest.TableMeta, len(tables))
	for i, t := range tables {
		out[i] = t.Meta
	}
	return out
}

// ---------------------------------------------------------------------------
// Partial KV separation into the shared active log.

const (
	// sepBatchBytes is how many framed value bytes a merge stages before
	// appending them to the value log in one write.
	sepBatchBytes = 256 << 10
	// sepMaxPending bounds the records held back behind a staged batch (a
	// run of carried pointers between two sparse new values would otherwise
	// pin every block it came from).
	sepMaxPending = 4096
)

// pendingRec is a merge output record waiting for its batch's pointers.
type pendingRec struct {
	rec    record.Record
	staged bool // rec's value sits in the batch; rec.Value is unset
}

// separator is the tail of a merge: it routes output records to the table
// writer, moving the values of records that qualify into the value log.
// Offsets in the shared active log are only known once a batch is appended,
// so while values are staged every output record — separated or not — is
// held back, and flush emits them in key order once the pointers exist.
// Held records alias their source blocks, which are immutable.
type separator struct {
	p       *partition
	w       *tableWriter
	batch   vlog.Batch
	pending []pendingRec
	ptrs    []record.ValuePtr
	ptrBuf  [record.EncodedPtrLen]byte
	logs    map[uint32]bool // logs that received values
}

func (p *partition) newSeparator(w *tableWriter) *separator {
	return &separator{p: p, w: w, logs: map[uint32]bool{}}
}

// separates reports whether rec's value belongs in the value log.
func (p *partition) separates(rec record.Record) bool {
	return rec.Kind == record.KindSet && !p.db.opts.DisableKVSeparation &&
		len(rec.Value) >= p.db.opts.ValueThreshold
}

// add emits rec, staging its value for the log if it qualifies.
func (s *separator) add(rec record.Record) error {
	staged := s.p.separates(rec)
	if !staged && len(s.pending) == 0 {
		return s.w.add(rec)
	}
	if staged {
		s.batch.Add(rec.Value)
		rec.Value = nil
	}
	s.pending = append(s.pending, pendingRec{rec: rec, staged: staged})
	if s.batch.Size() >= sepBatchBytes || len(s.pending) >= sepMaxPending {
		return s.flush()
	}
	return nil
}

// flush appends the staged values as one batch and emits the held records
// with their pointers filled in. Call it before finishing the writer.
func (s *separator) flush() error {
	if len(s.pending) == 0 {
		return nil
	}
	ptrs, err := s.p.db.vl.AppendBatch(s.p.id, &s.batch, s.ptrs[:0])
	if err != nil {
		return err
	}
	s.ptrs = ptrs
	next := 0
	for _, pr := range s.pending {
		rec := pr.rec
		if pr.staged {
			ptr := ptrs[next]
			next++
			s.logs[ptr.LogNum] = true
			rec.Kind = record.KindSetPtr
			rec.Value = ptr.Encode(s.ptrBuf[:0])
		}
		if err := s.w.add(rec); err != nil {
			return err
		}
	}
	s.batch.Reset()
	clear(s.pending) // drop the block references
	s.pending = s.pending[:0]
	return nil
}

// ---------------------------------------------------------------------------
// Unsorted → Sorted merge with partial KV separation.

// mergeLocked drains the UnsortedStore into the SortedStore. Requires
// p.mu held for writing (inline mode and CompactAll).
func (p *partition) mergeLocked() error {
	return p.mergeTables(p.uns.Tables(), true)
}

// backgroundMerge is the merge job: it snapshots the UnsortedStore's
// current tables (flush order is append-only, so the snapshot stays a
// stable prefix while concurrent flushes land behind it), re-checks the
// trigger, and runs the heavy merge without the partition lock.
func (p *partition) backgroundMerge() error {
	p.mu.RLock()
	if p.uns.SizeBytes() < p.db.opts.UnsortedLimit {
		p.mu.RUnlock()
		return nil
	}
	snap := append([]*unsorted.Table(nil), p.uns.Tables()...)
	p.mu.RUnlock()
	if h := p.db.testHookMergeBuild; h != nil {
		h(p) // test-only gate: hold the merge "mid-build", no locks held
	}
	return p.mergeTables(snap, false)
}

// mergeTables merges snap (a prefix of the UnsortedStore in flush order)
// and the SortedStore run into a new sorted run: keys are merge-sorted
// with the existing run; values of incoming (hot-tier) records are
// appended to the value log and replaced by pointers; existing pointers
// are carried through untouched.
//
// locked means the caller already holds p.mu for writing and owns the
// whole UnsortedStore (snap is all of it). Otherwise the build runs
// without the lock — the SortedStore and the snapshot are stable because
// structural jobs are serialized by maintMu and flushes only append —
// and the commit re-locks to install the new run, keeping whatever
// tables were flushed after the snapshot.
func (p *partition) mergeTables(snap []*unsorted.Table, locked bool) error {
	if len(snap) == 0 {
		return nil
	}
	db := p.db

	// Separated values land in the shared active log, which can rotate
	// mid-merge; their pointers become visible only at commit. Pin the
	// append window so a concurrent GC in another partition does not
	// collect the logs we are writing into.
	pin := db.vl.Pin()
	defer db.vl.Unpin(pin)

	iters := make([]recIter, 0, len(snap)+1)
	for _, t := range snap {
		iters = append(iters, t.Reader.NewMaintIterator())
	}
	iters = append(iters, p.srt.NewMaintIterator())
	m := newMergeIter(iters)

	w := p.newTableWriter(p.dir)
	sep := p.newSeparator(w)
	var lastKey []byte
	for ok := m.First(); ok; ok = m.Next() {
		rec := m.Record()
		if lastKey != nil && codec.Compare(rec.Key, lastKey) == 0 {
			// Shadowed version: if it pointed into a log, that value is
			// now garbage.
			p.accountGarbage(rec)
			continue
		}
		lastKey = rec.Key // aliases an immutable block
		if rec.Kind == record.KindDelete {
			// The SortedStore is the bottom tier: drop the tombstone.
			continue
		}
		if err := sep.add(rec); err != nil {
			return err
		}
	}
	if err := sep.flush(); err != nil {
		return err
	}
	for _, it := range iters {
		if e, ok := it.(interface{ Err() error }); ok {
			if err := e.Err(); err != nil {
				return err
			}
		}
	}
	tables, err := w.finish()
	if err != nil {
		return err
	}
	if err := db.vl.Sync(); err != nil {
		return err
	}

	if !locked {
		p.mu.Lock()
		defer p.mu.Unlock()
	}

	// Log set: keep everything previously referenced (their pointers were
	// carried through) plus the logs the new values landed in.
	var added []uint32
	for n := range sep.logs {
		if !p.logs[n] {
			p.logs[n] = true
			added = append(added, n)
		}
	}

	// Tables flushed after the snapshot stay in the UnsortedStore (their
	// local IDs are positional, so removing the merged prefix rebuilds
	// the index over the survivors).
	remaining := append([]*unsorted.Table(nil), p.uns.Tables()[len(snap):]...)
	oldSorted := p.srt.Tables()
	oldCkpt := p.hashCkpt

	// Make the new run's directory entries durable before the commit
	// references them (vl.Sync above covered the value-log directory).
	if err := db.fs.SyncDir(p.dir); err != nil {
		return err
	}
	if err := db.man.Apply(
		manifest.SetUnsorted(p.id, unsortedMetas(remaining)),
		manifest.SetSorted(p.id, tableMetas(tables)),
		manifest.SetLogs(p.id, p.logsSliceLocked()),
		manifest.SetHashCkpt(p.id, 0),
		manifest.LastSeq(db.seq.Load()),
		db.nextFileEdit(),
	); err != nil {
		return err
	}
	db.retainLogs(added)

	// Swap in-memory state, then retire the replaced tables (deleted when
	// the last owner — possibly a pinned snapshot — closes them).
	if err := p.uns.ReplaceTables(remaining); err != nil {
		//unikv:allow(refpair) the manifest above already committed the added logs; the retention mirrors durable state, and releasing it here would let GC delete logs the manifest references
		return err
	}
	p.srt.ReplaceAll(tables)
	p.hashCkpt = 0
	p.flushesSinceCkpt = 0
	for _, t := range snap {
		db.retireTable(p.dir, t.Meta.FileNum, t.Reader)
	}
	for _, t := range oldSorted {
		db.retireTable(p.dir, t.Meta.FileNum, t.Reader)
	}
	if oldCkpt != 0 {
		db.fs.Remove(ckptName(p.dir, oldCkpt))
	}
	db.stats.Merges.Add(1)
	return nil
}

// unsortedMetas extracts manifest metadata from unsorted tables (nil for
// an empty set, matching the manifest's "no tables" encoding).
func unsortedMetas(tables []*unsorted.Table) []manifest.TableMeta {
	if len(tables) == 0 {
		return nil
	}
	out := make([]manifest.TableMeta, len(tables))
	for i, t := range tables {
		out[i] = t.Meta
	}
	return out
}

// accountGarbage records that rec's value (if log-resident) became dead.
func (p *partition) accountGarbage(rec record.Record) {
	if rec.Kind != record.KindSetPtr {
		return
	}
	ptr, err := record.DecodePtr(rec.Value)
	if err != nil {
		return
	}
	p.db.vl.AddGarbage(ptr.LogNum, int64(ptr.Length)+8)
	p.garbageBytes.Add(int64(ptr.Length) + 8)
}

// ---------------------------------------------------------------------------
// Size-based merge (scan optimization): compact all UnsortedStore tables
// into a single sorted table so scans stop probing every overlapping table.
// Values stay inline (hot tier keeps KV together) and tombstones are kept
// (they still shadow the SortedStore).

func (p *partition) scanMergeLocked() error {
	return p.scanMergeTables(p.uns.Tables(), true)
}

// backgroundScanMerge is the scan-merge job (snapshot semantics as in
// backgroundMerge).
func (p *partition) backgroundScanMerge() error {
	p.mu.RLock()
	if p.db.opts.DisableScanMerge || p.uns.NumTables() < p.db.opts.ScanMergeLimit {
		p.mu.RUnlock()
		return nil
	}
	snap := append([]*unsorted.Table(nil), p.uns.Tables()...)
	p.mu.RUnlock()
	return p.scanMergeTables(snap, false)
}

// scanMergeTables compacts snap into a single table that keeps tombstones
// and inline values. In background mode the merged table takes the oldest
// position and later-flushed tables keep shadowing it, preserving
// newest-first probe order.
func (p *partition) scanMergeTables(snap []*unsorted.Table, locked bool) error {
	if len(snap) <= 1 {
		return nil
	}
	db := p.db

	iters := make([]recIter, 0, len(snap))
	for _, t := range snap {
		iters = append(iters, t.Reader.NewMaintIterator())
	}
	m := newMergeIter(iters)

	num := db.allocFileNum()
	name := tableName(p.dir, num)
	f, err := db.fs.Create(name)
	if err != nil {
		return err
	}
	b := sstable.NewBuilder(f, sstable.BuilderOptions{BlockSize: db.opts.BlockSize})
	var lastKey []byte
	for ok := m.First(); ok; ok = m.Next() {
		rec := m.Record()
		if lastKey != nil && codec.Compare(rec.Key, lastKey) == 0 {
			continue
		}
		lastKey = rec.Key // aliases an immutable block
		b.Add(rec)
	}
	for _, it := range iters {
		if e, ok := it.(interface{ Err() error }); ok {
			if err := e.Err(); err != nil {
				f.Close()
				return err
			}
		}
	}
	props, err := b.Finish()
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	rf, err := db.fs.Open(name)
	if err != nil {
		return err
	}
	rdr, err := sstable.Open(rf)
	if err != nil {
		rf.Close()
		return err
	}
	rdr.SetCache(db.cache, num)
	meta := manifest.TableMeta{
		FileNum: num, Size: props.Size, Count: props.Count,
		Smallest: props.Smallest, Largest: props.Largest,
		MinSeq: props.MinSeq, MaxSeq: props.MaxSeq,
	}

	if !locked {
		p.mu.Lock()
		defer p.mu.Unlock()
	}
	newSet := append([]*unsorted.Table{{Meta: meta, Reader: rdr}},
		p.uns.Tables()[len(snap):]...)
	oldCkpt := p.hashCkpt
	if err := db.fs.SyncDir(p.dir); err != nil {
		return err
	}
	if err := db.man.Apply(
		manifest.SetUnsorted(p.id, unsortedMetas(newSet)),
		manifest.SetHashCkpt(p.id, 0),
		db.nextFileEdit(),
	); err != nil {
		return err
	}
	if err := p.uns.ReplaceTables(newSet); err != nil {
		return err
	}
	p.hashCkpt = 0
	p.flushesSinceCkpt = 0
	for _, t := range snap {
		db.retireTable(p.dir, t.Meta.FileNum, t.Reader)
	}
	if oldCkpt != 0 {
		db.fs.Remove(ckptName(p.dir, oldCkpt))
	}
	db.stats.ScanMerges.Add(1)
	return nil
}
