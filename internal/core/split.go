package core

import (
	"unikv/internal/codec"
	"unikv/internal/manifest"
	"unikv/internal/record"
)

// splitPartition implements dynamic range partitioning (paper §Design):
// when a partition reaches PartitionSizeLimit it is divided into two
// partitions at the median key. The partition is locked for the duration —
// writes to its range pause (other partitions proceed).
//
// Keys are split eagerly: the whole partition is merge-sorted (exactly like
// a merge) and each half's keys+pointers are written to its own
// SortedStore. Values are split lazily: values still resident in the
// UnsortedStore are appended to each child's fresh log during the split
// merge; values already in logs stay put — both children reference the old
// (now shared) logs, and each child's next GC rewrites its live values into
// its own logs (releaseLogs deletes a shared log once both sides moved on).
func (db *DB) splitPartition(parent *partition) error {
	db.router.Lock()
	defer db.router.Unlock()
	parent.mu.Lock()
	defer parent.mu.Unlock()

	if db.opts.DisablePartitioning {
		return nil
	}
	// Re-check under the lock: another trigger may have split already.
	if parent.sizeLocked() < db.opts.PartitionSizeLimit {
		return nil
	}

	// Step 1: flush buffered writes so the merge stream sees everything.
	// In background mode frozen memtables may still be queued; the caller
	// holds flushMu, so no flush job races this drain.
	if err := parent.drainImmLocked(); err != nil {
		return err
	}
	if err := parent.flushLocked(); err != nil {
		return err
	}

	// Pass 1: count output records to locate the median.
	total, err := parent.countMergedLocked()
	if err != nil {
		return err
	}
	if total < 2 {
		return nil
	}
	half := total / 2

	// Allocate the right child.
	state := db.man.State()
	childID := state.NextPartID
	childDir := db.partDir(childID)
	if err := db.fs.MkdirAll(childDir); err != nil {
		return err
	}
	child := &partition{db: db, id: childID, dir: childDir, upper: parent.upper}
	if err := child.initEmptyStores(); err != nil {
		return err
	}
	child.uns.DisableIndex = db.opts.DisableHashIndex

	// Pass 2: stream the merge, writing the first half to the parent's new
	// run and the rest to the child's, with fresh logs for unsorted-tier
	// values.
	leftLog, err := db.vl.NewDedicatedLog(parent.id)
	if err != nil {
		return err
	}
	rightLog, err := db.vl.NewDedicatedLog(childID)
	if err != nil {
		return err
	}
	leftW := parent.newTableWriter(parent.dir)
	rightW := child.newTableWriter(childDir)

	m := parent.newFullMergeIterLocked()
	var lastKey []byte
	var ptrBuf [record.EncodedPtrLen]byte
	idx := 0
	var boundary []byte
	for ok := m.First(); ok; ok = m.Next() {
		rec := m.Record()
		if lastKey != nil && codec.Compare(rec.Key, lastKey) == 0 {
			parent.accountGarbage(rec)
			continue
		}
		lastKey = rec.Key // aliases an immutable block
		if rec.Kind == record.KindDelete {
			continue
		}
		right := idx >= half
		if right && boundary == nil {
			boundary = append([]byte(nil), rec.Key...)
		}
		idx++

		w, lg := leftW, leftLog
		if right {
			w, lg = rightW, rightLog
		}
		if parent.separates(rec) {
			ptr, err := lg.Append(rec.Value)
			if err != nil {
				return err
			}
			rec.Kind = record.KindSetPtr
			rec.Value = ptr.Encode(ptrBuf[:0])
		}
		if err := w.add(rec); err != nil {
			return err
		}
	}
	leftTables, err := leftW.finish()
	if err != nil {
		return err
	}
	rightTables, err := rightW.finish()
	if err != nil {
		return err
	}
	leftHasLog, err := leftLog.Finish()
	if err != nil {
		return err
	}
	rightHasLog, err := rightLog.Finish()
	if err != nil {
		return err
	}
	if boundary == nil {
		// Everything deduplicated/deleted into fewer than half records:
		// nothing to split after all.
		boundary = append([]byte(nil), lastKey...)
	}

	// Log sets: each child references all previously shared logs plus its
	// own fresh one.
	shared := parent.logsSliceLocked()
	leftLogs := map[uint32]bool{}
	rightLogs := map[uint32]bool{}
	for _, n := range shared {
		leftLogs[n] = true
		rightLogs[n] = true
	}
	if leftHasLog {
		leftLogs[leftLog.Num()] = true
	}
	if rightHasLog {
		rightLogs[rightLog.Num()] = true
	}

	// Child WAL.
	var childEdits []manifest.Edit
	if !db.opts.DisableWAL {
		if err := child.newWALLocked(); err != nil {
			return err
		}
		childEdits = append(childEdits, manifest.SetWAL(childID, child.walNum))
	}

	oldUnsorted := parent.uns.Tables()
	oldSorted := parent.srt.Tables()
	oldCkpt := parent.hashCkpt

	logsOf := func(set map[uint32]bool) []uint32 {
		out := make([]uint32, 0, len(set))
		for n := range set {
			out = append(out, n)
		}
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j] < out[j-1]; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		return out
	}

	edits := []manifest.Edit{
		manifest.AddPartition(childID, boundary),
		manifest.NextPart(childID + 1),
		manifest.SetUnsorted(parent.id, nil),
		manifest.SetSorted(parent.id, tableMetas(leftTables)),
		manifest.SetHashCkpt(parent.id, 0),
		manifest.SetLogs(parent.id, logsOf(leftLogs)),
		manifest.SetSorted(childID, tableMetas(rightTables)),
		manifest.SetLogs(childID, logsOf(rightLogs)),
		manifest.LastSeq(db.seq.Load()),
		db.nextFileEdit(),
	}
	edits = append(edits, childEdits...)
	// Both children's new tables must be findable after a crash before the
	// manifest references them (the vlog and WAL directory entries were
	// synced by DedicatedLog.Finish and newWALLocked above).
	if err := db.fs.SyncDir(parent.dir); err != nil {
		return err
	}
	if err := db.fs.SyncDir(childDir); err != nil {
		return err
	}
	if err := db.man.Apply(edits...); err != nil {
		return err
	}

	// Reference accounting: shared logs gain the child's reference; the
	// fresh logs gain their single owner.
	db.retainLogs(shared)
	if leftHasLog {
		db.retainLogs([]uint32{leftLog.Num()})
	}
	if rightHasLog {
		db.retainLogs([]uint32{rightLog.Num()})
	}

	// Install the in-memory split.
	parent.uns.Reset()
	parent.srt.ReplaceAll(leftTables)
	parent.hashCkpt = 0
	parent.flushesSinceCkpt = 0
	parent.upper = boundary
	parent.logs = leftLogs
	parent.garbageBytes.Store(parent.garbageBytes.Load() / 2)
	child.lower = boundary
	child.srt.ReplaceAll(rightTables)
	child.logs = rightLogs
	child.garbageBytes.Store(parent.garbageBytes.Load())

	// Insert the child after the parent in router order.
	parts := db.router.parts
	pos := 0
	for i, q := range parts {
		if q == parent {
			pos = i + 1
			break
		}
	}
	parts = append(parts, nil)
	copy(parts[pos+1:], parts[pos:])
	parts[pos] = child
	db.router.parts = parts

	// Drop the handed-over range [boundary, child.upper) from the hot ring:
	// its heat belongs to the child now, and a ranged handoff must never
	// leave hits behind (hotring.writerMu is the last lock rank, safe under
	// router.mu + parent.mu held here).
	db.hot.InvalidateRange(boundary, child.upper)

	// Retire replaced tables (deleted once the last owner — possibly a
	// pinned snapshot — closes them): a split invalidates nothing a pinned
	// reader can still reach.
	for _, t := range oldUnsorted {
		db.retireTable(parent.dir, t.Meta.FileNum, t.Reader)
	}
	for _, t := range oldSorted {
		db.retireTable(parent.dir, t.Meta.FileNum, t.Reader)
	}
	if oldCkpt != 0 {
		db.fs.Remove(ckptName(parent.dir, oldCkpt))
	}
	db.stats.Splits.Add(1)
	return nil
}

// newFullMergeIterLocked builds the merge stream over the partition's
// whole on-disk state (all unsorted tables + the sorted run).
func (p *partition) newFullMergeIterLocked() *mergeIter {
	var iters []recIter
	for _, t := range p.uns.Tables() {
		iters = append(iters, t.Reader.NewMaintIterator())
	}
	iters = append(iters, p.srt.NewMaintIterator())
	return newMergeIter(iters)
}

// countMergedLocked counts the records a full merge would output (unique
// live keys), for median finding.
func (p *partition) countMergedLocked() (int, error) {
	m := p.newFullMergeIterLocked()
	var lastKey []byte
	n := 0
	for ok := m.First(); ok; ok = m.Next() {
		rec := m.Record()
		if lastKey != nil && codec.Compare(rec.Key, lastKey) == 0 {
			continue
		}
		lastKey = rec.Key // aliases an immutable block
		if rec.Kind == record.KindDelete {
			continue
		}
		n++
	}
	return n, nil
}
