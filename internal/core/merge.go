package core

import (
	"unikv/internal/codec"
	"unikv/internal/manifest"
	"unikv/internal/mergeiter"
	"unikv/internal/record"
	"unikv/internal/sorted"
	"unikv/internal/sortedview"
	"unikv/internal/sstable"
	"unikv/internal/vfs"
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
// The table writer and the live-record stream: every job that writes tables
// — flush, scan merge, merge, split and GC — writes them through a
// tableWriter, and all but GC (one run, nothing shadowed) feed it from
// eachNewest.

// tableWriter writes a job's tables from a sorted record stream. It names
// each table in the job before creating it, rolls to a new one once the
// current one reaches rollAt bytes (0: never — a flushed or scan-merged table
// is one file), and opens a reader over each it finishes. A job defers abort,
// which closes a half-written table; the job's end removes its files.
type tableWriter struct {
	p      *partition
	j      *job
	rollAt int64
	tables []*sorted.Table
	b      *sstable.Builder
	f      vfs.File
	num    uint64
}

func (p *partition) newTableWriter(j *job, rollAt int64) *tableWriter {
	return &tableWriter{p: p, j: j, rollAt: rollAt}
}

// add appends rec and returns where it landed: its block, and its position
// there, in the table being written.
func (w *tableWriter) add(rec record.Record) (block, pos int, err error) {
	if w.b == nil {
		db := w.p.db
		w.num = db.allocFileNum()
		db.name(w.j, w.p.file(fileTable, w.num))
		f, err := db.fs.Create(tableName(w.p.dir, w.num))
		if err != nil {
			return 0, 0, err
		}
		w.b, w.f = sstable.NewBuilder(f, sstable.BuilderOptions{BlockSize: db.opts.exp.BlockSize}), f
	}
	block, pos = w.b.NextPosition()
	w.b.Add(rec)
	if w.rollAt > 0 && w.b.EstimatedSize() >= w.rollAt {
		err = w.roll()
	}
	return block, pos, err
}

// roll finishes the table being written and opens its reader.
func (w *tableWriter) roll() error {
	if w.b == nil {
		return nil
	}
	props, err := w.b.Finish()
	if err != nil {
		return err
	}
	f := w.f
	w.b, w.f = nil, nil
	if err := f.Close(); err != nil {
		return err
	}
	meta := tableMeta(w.num, props)
	rdr, err := w.p.openTable(meta)
	if err != nil {
		return err
	}
	w.tables = append(w.tables, &sorted.Table{Meta: meta, Reader: rdr})
	return nil
}

// finish finishes the trailing table and returns every table written. A
// failed finish closes the table it could not finish, as abort does.
func (w *tableWriter) finish() ([]*sorted.Table, error) {
	if err := w.roll(); err != nil {
		w.abort()
		return nil, err
	}
	return w.tables, nil
}

// abort closes the table being written, unfinished. The tables already
// finished need nothing: their readers go with their files.
func (w *tableWriter) abort() {
	if w.f != nil {
		w.f.Close()
		w.b, w.f = nil, nil
	}
}

// eachNewest walks m — key ascending, newest version first — and hands the
// newest record of each key to emit: the one rule by which every job that
// rewrites a partition's data decides what survives (RocksDB's
// CompactionIterator). Into the SortedStore (bottom) tombstones are dropped
// too, as nothing below is left for them to shadow. shadowed, when set, gets
// every older version. m is the concrete merge iterator, not a recIter:
// reached through an interface, the stream made a merge build 8 % slower.
func eachNewest(m *mergeIter, bottom bool, shadowed func(record.Record), emit func(record.Record) error) error {
	var last []byte
	for ok := m.First(); ok; ok = m.Next() {
		rec := m.Record()
		if last != nil && codec.Compare(rec.Key, last) == 0 {
			if shadowed != nil {
				shadowed(rec)
			}
			continue
		}
		last = rec.Key // aliases an immutable block or a frozen memtable
		if bottom && rec.Kind == record.KindDelete {
			continue
		}
		if err := emit(rec); err != nil {
			return err
		}
	}
	return m.Err() // a read fault must not pass for the end of the stream
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
	return rec.Kind == record.KindSet && !p.db.opts.exp.DisableKVSeparation &&
		len(rec.Value) >= p.db.opts.ValueThreshold
}

// add emits rec, staging its value for the log if it qualifies.
func (s *separator) add(rec record.Record) error {
	staged := s.p.separates(rec)
	if !staged && len(s.pending) == 0 {
		_, _, err := s.w.add(rec)
		return err
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
		if _, _, err := s.w.add(rec); err != nil {
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
	err = p.replaceUnsorted(len(v.uns.Tables()), nil, nil, nil, func(next *version) []manifest.Edit {
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
	w := p.newTableWriter(j, db.opts.TargetTableSize)
	defer w.abort()
	sep := p.newSeparator(w)
	// A shadowed version that pointed into a log leaves its value garbage.
	if err := eachNewest(v.newFullMergeIter(), true, p.accountGarbage, sep.add); err != nil {
		return nil, nil, err
	}
	if err := sep.flush(); err != nil {
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
// unsorted tables. The UnsortedStore it installs — head (none when the
// merged tables drain into the SortedStore) followed by whatever was flushed
// behind them — is derived in memory from the current one and head's keys
// and view entries, collected while it was written (unsorted.Store.Replace);
// no table is read. Under the partition lock, change completes the
// successor carrying that store and returns the edits the commit logs
// beside the derived ones. flushMu is held across both so that no flush
// lands a table the new store would miss.
func (p *partition) replaceUnsorted(merged int, head *sorted.Table, keys [][]byte, entries []sortedview.Entry, change func(next *version) []manifest.Edit) error {
	p.flushMu.Lock()
	defer p.flushMu.Unlock()
	uns := p.cur.Load().uns.Replace(merged, head, keys, entries) // maintMu plus flushMu pin its table list
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
	head, c, err := p.buildScanMerge(j, v)
	if err != nil {
		return err
	}
	if h := p.db.testHookMergeBuild; h != nil {
		h(p) // test-only gate, as in merge
	}
	err = p.replaceUnsorted(len(v.uns.Tables()), head, c.keys, c.entries, func(*version) []manifest.Edit {
		return []manifest.Edit{p.db.nextFileEdit()}
	})
	if err == nil {
		p.db.stats.ScanMerges.Add(1)
	}
	return err
}

// buildScanMerge compacts v's unsorted tables into a single table, which j
// names, that keeps tombstones and inline values, collecting its keys and
// view entries as the flush does.
func (p *partition) buildScanMerge(j *job, v *version) (*sorted.Table, *collector, error) {
	iters := make([]recIter, 0, v.unsTables)
	n := 0
	for _, t := range v.uns.Tables() {
		iters = append(iters, t.Reader.NewMaintIterator())
		n += int(t.Meta.Count)
	}
	w := p.newTableWriter(j, 0)
	defer w.abort()
	c := p.newCollector(w, n)
	if err := eachNewest(newMergeIter(iters), false, nil, c.add); err != nil {
		return nil, nil, err
	}
	tables, err := w.finish()
	if err != nil {
		return nil, nil, err
	}
	return tables[0], c, p.db.fs.SyncDir(p.dir) // v holds two tables or more: the merge is not empty
}
