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
// TargetTableSize each, naming each in its job before creating it.

type tableWriter struct {
	p      *partition
	j      *job
	tables []*sorted.Table
	b      *sstable.Builder
	f      interface {
		Close() error
	}
	num uint64
}

func (p *partition) newTableWriter(j *job) *tableWriter {
	return &tableWriter{p: p, j: j}
}

func (w *tableWriter) add(rec record.Record) error {
	if w.b == nil {
		w.num = w.p.db.allocFileNum()
		w.p.db.name(w.j, w.p.file(fileTable, w.num))
		f, err := w.p.db.fs.Create(tableName(w.p.dir, w.num))
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
	meta := tableMeta(w.num, props)
	rdr, err := w.p.openTable(meta)
	if err != nil {
		return err
	}
	w.tables = append(w.tables, &sorted.Table{Meta: meta, Reader: rdr})
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
	logs    []uint32 // logs that received values, ascending
}

func (p *partition) newSeparator(w *tableWriter) *separator {
	return &separator{p: p, w: w}
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
			if n := len(s.logs); n == 0 || s.logs[n-1] != ptr.LogNum {
				s.logs = append(s.logs, ptr.LogNum) // the active log only moves up
			}
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

// merge is the merge job: it drains pinned v's unsorted tables — a stable
// prefix of the UnsortedStore while concurrent flushes land behind them —
// into the SortedStore, with no partition lock until the commit. The
// SortedStore cannot change meanwhile: structural jobs are serialized by
// maintMu, which the caller holds, and flushes only append. Separated values
// land in the shared active log, which can rotate mid-merge; until the
// commit the job keeps every log from the active one up on the disk.
func (p *partition) merge(v *version) error {
	if v.unsTables == 0 {
		return nil
	}
	j := p.db.beginJob()
	defer p.db.endJob(j)
	tables, logs, err := p.buildMerge(j, v)
	if err != nil {
		return err
	}
	if h := p.db.testHookMergeBuild; h != nil {
		h(p) // test-only gate: hold the merge between build and commit, no partition lock held
	}
	// Log set: keep everything previously referenced (their pointers were
	// carried through) plus the logs the new values landed in.
	err = p.replaceUnsorted(len(v.uns.Tables()), nil, func(next *version) []manifest.Edit {
		next.srt, next.logs = sorted.New(tables), mergeLogs(next.logs, logs...)
		return []manifest.Edit{manifest.LastSeq(p.db.seq.Load()), p.db.nextFileEdit()}
	})
	if err == nil {
		p.db.stats.Merges.Add(1)
	}
	return err
}

// buildMerge merges v's unsorted tables (a prefix of the UnsortedStore in
// flush order) and its SortedStore run into a new sorted run: keys are
// merge-sorted with the existing run; values of incoming (hot-tier) records
// are appended to the value log and replaced by pointers; existing pointers
// are carried through untouched. It touches only new files, which j names,
// and returns the run with the logs its separated values landed in.
func (p *partition) buildMerge(j *job, v *version) ([]*sorted.Table, []uint32, error) {
	db := p.db
	w := p.newTableWriter(j)
	sep := p.newSeparator(w)
	mi := v.newFullMergeIter()
	var lastKey []byte
	for ok := mi.First(); ok; ok = mi.Next() {
		rec := mi.Record()
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
			return nil, nil, err
		}
	}
	if err := sep.flush(); err != nil {
		return nil, nil, err
	}
	if err := mi.Err(); err != nil {
		return nil, nil, err
	}
	tables, err := w.finish()
	if err != nil {
		return nil, nil, err
	}
	if err := db.vl.Sync(); err != nil {
		return nil, nil, err
	}
	// Make the new run's directory entries durable before the commit
	// references them (vl.Sync above covered the value-log directory).
	return tables, sep.logs, db.fs.SyncDir(p.dir)
}

// replaceUnsorted commits a merge or scan merge of the first merged
// unsorted tables. It builds the UnsortedStore the commit installs — head
// (nil when the merged tables drain into the SortedStore) followed by
// whatever was flushed behind them, under a fresh hash index and view (local
// IDs are positional) — which reads those tables and so happens in front of
// the partition lock. Under it, change completes the successor carrying that
// store, in memory, and returns the edits the commit logs beside the derived
// ones. flushMu is held across both so that no flush lands a table the new
// store would miss.
func (p *partition) replaceUnsorted(merged int, head *unsorted.Table, change func(next *version) []manifest.Edit) error {
	p.flushMu.Lock()
	defer p.flushMu.Unlock()
	cur := p.cur.Load().uns // maintMu plus flushMu pin its table list
	var tables []*unsorted.Table
	if head != nil {
		tables = append(tables, head)
	}
	uns, err := cur.Rebuild(append(tables, cur.Tables()[merged:]...))
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	next := p.cur.Load().successor()
	next.uns = uns
	return p.commit(next, change(next)...)
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

// scanMerge is the scan-merge job, over pinned v as in merge. The merged
// table takes the oldest position and later-flushed tables keep shadowing
// it, preserving newest-first probe order.
func (p *partition) scanMerge(v *version) error {
	if v.unsTables <= 1 {
		return nil
	}
	j := p.db.beginJob()
	defer p.db.endJob(j)
	tbl, err := p.buildScanMerge(j, v)
	if err != nil {
		return err
	}
	err = p.replaceUnsorted(len(v.uns.Tables()), tbl, func(*version) []manifest.Edit {
		return []manifest.Edit{p.db.nextFileEdit()}
	})
	if err == nil {
		p.db.stats.ScanMerges.Add(1)
	}
	return err
}

// buildScanMerge compacts v's unsorted tables into a single table, which j
// names, that keeps tombstones and inline values.
func (p *partition) buildScanMerge(j *job, v *version) (*unsorted.Table, error) {
	db := p.db
	iters := make([]recIter, 0, v.unsTables)
	for _, t := range v.uns.Tables() {
		iters = append(iters, t.Reader.NewMaintIterator())
	}
	m := newMergeIter(iters)

	num := db.allocFileNum()
	db.name(j, p.file(fileTable, num))
	f, err := db.fs.Create(tableName(p.dir, num))
	if err != nil {
		return nil, err
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
	if err := m.Err(); err != nil {
		f.Close()
		return nil, err
	}
	props, err := b.Finish()
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	meta := tableMeta(num, props)
	rdr, err := p.openTable(meta)
	if err != nil {
		return nil, err
	}
	return &unsorted.Table{Meta: meta, Reader: rdr}, db.fs.SyncDir(p.dir)
}
