package core

import (
	"slices"
	"unikv/internal/manifest"
	"unikv/internal/record"
	"unikv/internal/sorted"
)

// splitPartition implements dynamic range partitioning (paper §Design):
// when a partition reaches PartitionSizeLimit it is divided into two
// partitions at the median key. Writes to its range wait for the duration;
// reads go on against the version from before the split, and other
// partitions proceed — the partition lock is held only to flush the
// buffered writes at the start, and it and the router lock to commit.
//
// Keys are split eagerly: the whole partition is merge-sorted (exactly like
// a merge) and each half's keys+pointers are written to its own
// SortedStore. Values are split lazily: values still resident in the
// UnsortedStore are appended to each child's fresh log during the split
// merge; values already in logs stay put — both children reference the old
// (now shared) logs, and each child's next GC rewrites its live values into
// its own logs (a shared log goes once both sides' versions moved on).
func (db *DB) splitPartition(parent *partition) error {
	if db.opts.exp.DisablePartitioning {
		return nil
	}
	// No structural job and no flush beside a split; another split of this
	// partition waits here and then finds it small.
	parent.maintMu.Lock()
	defer parent.maintMu.Unlock()
	parent.flushMu.Lock()
	defer parent.flushMu.Unlock()

	// Step 1: turn writers away until the split is over and flush what they
	// buffered, so the merge stream sees everything (frozen memtables may
	// still be queued). splitting is set under the lock that freezes, so no
	// write slips in between the flush and the merge; from here on only a
	// scan's first view, or another partition's share of a log, can publish.
	parent.mu.Lock()
	if parent.cur.Load().size < db.opts.PartitionSizeLimit {
		parent.mu.Unlock()
		return nil // another trigger split it already
	}
	if err := parent.freezeMemLocked(); err != nil {
		parent.mu.Unlock()
		return err
	}
	done := make(chan struct{})
	parent.splitting = done
	parent.mu.Unlock()
	defer func() {
		parent.mu.Lock()
		parent.splitting = nil
		parent.mu.Unlock()
		close(done)
	}()
	if err := parent.drainImm(); err != nil {
		return err
	}
	v := parent.acquire()
	defer v.release()

	// Pass 1: count output records to locate the median.
	total := 0
	if err := eachNewest(v.newFullMergeIter(), true, nil, func(record.Record) error { total++; return nil }); err != nil {
		return err
	}
	if total < 2 {
		parent.noSplit.Store(v.size)
		return nil
	}
	half := total / 2

	// Allocate the right child.
	childID := db.nextPart.Add(1) - 1
	childDir := db.partDir(childID)
	if err := db.fs.MkdirAll(childDir); err != nil {
		return err
	}
	child := &partition{db: db, id: childID, dir: childDir}

	// Pass 2: stream the merge, writing the first half to the parent's new
	// run and the rest to the child's, with fresh logs for unsorted-tier
	// values.
	j := db.beginJob()
	defer db.endJob(j)
	leftLog, err := db.vl.NewDedicatedLog(parent.id)
	if err != nil {
		return err
	}
	defer leftLog.Abort()
	rightLog, err := db.vl.NewDedicatedLog(childID)
	if err != nil {
		return err
	}
	defer rightLog.Abort()
	leftW := parent.newTableWriter(j, db.opts.TargetTableSize)
	defer leftW.abort()
	rightW := child.newTableWriter(j, db.opts.TargetTableSize)
	defer rightW.abort()

	// Pass 1 counted this stream, so its half-th record exists and opens the
	// child's range.
	var ptrBuf [record.EncodedPtrLen]byte
	idx := 0
	var boundary []byte
	err = eachNewest(v.newFullMergeIter(), true, parent.accountGarbage, func(rec record.Record) error {
		w, lg := leftW, leftLog
		if idx >= half {
			if boundary == nil {
				boundary = append([]byte(nil), rec.Key...)
			}
			w, lg = rightW, rightLog
		}
		idx++
		if parent.separates(rec) {
			ptr, err := lg.Append(rec.Value)
			if err != nil {
				return err
			}
			rec.Kind = record.KindSetPtr
			rec.Value = ptr.Encode(ptrBuf[:0])
		}
		_, _, err := w.add(rec)
		return err
	})
	if err != nil {
		return err
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

	// Log sets: each child references all previously shared logs plus its
	// own fresh one.
	leftLogs, rightLogs := v.logs, v.logs
	if leftHasLog {
		leftLogs = mergeLogs(v.logs, leftLog.Num())
	}
	if rightHasLog {
		rightLogs = mergeLogs(v.logs, rightLog.Num())
	}

	leftUns := v.uns.Replace(v.unsTables, nil, nil, nil) // the split drained every unsorted table

	// The child's first version, and its edits from the empty one.
	child.lower = boundary
	empty := child.emptyVersion(v.upper)
	right := empty.successor()
	right.srt, right.logs = sorted.New(rightTables), rightLogs
	edits := append([]manifest.Edit{
		manifest.AddPartition(childID, boundary),
		manifest.NextPart(db.nextPart.Load()),
	}, empty.edits(right)...)
	if err := child.newWALLocked(right); err != nil {
		return err
	}
	db.name(j, child.file(fileWAL, right.wals[0]))
	edits = append(edits, manifest.SetWAL(childID, right.wals[0]))
	// Both children's new tables must be findable after a crash before the
	// manifest references them (the vlog and WAL directory entries were
	// synced by DedicatedLog.Finish and newWALLocked above).
	if err := db.fs.SyncDir(parent.dir); err != nil {
		return err
	}
	if err := db.fs.SyncDir(childDir); err != nil {
		return err
	}

	// Commit: one manifest batch, the two versions and the router entry. The
	// parent's next version ends at the boundary, the child's first one
	// starts there; the replaced tables go with the last version naming them.
	// The child is installed first, so that the parent's version counts its
	// share of the logs they now share. The router order is published last,
	// so nothing routes to the child before the split is committed; a route
	// that finds the parent's narrowed version first waits on router.mu
	// (awaitRoutes) for this publish.
	db.router.Lock()
	defer db.router.Unlock()
	parent.mu.Lock()
	defer parent.mu.Unlock()
	cur := parent.cur.Load()
	left := cur.successor()
	left.upper, left.uns, left.srt, left.logs = boundary, leftUns, sorted.New(leftTables), leftLogs
	edits = append(edits, cur.edits(left)...)
	if err := db.man.Apply(append(edits, manifest.LastSeq(db.seq.Load()), db.nextFileEdit())...); err != nil {
		return err
	}
	child.install(right)
	parent.install(left)
	parent.garbageBytes.Store(parent.garbageBytes.Load() / 2)
	child.garbageBytes.Store(parent.garbageBytes.Load())

	// Drop the handed-over range [boundary, upper) from the hot ring: its
	// heat belongs to the child now, and a ranged handoff must never leave
	// hits behind (hotring.writerMu is the last lock rank, safe under
	// router.mu + parent.mu held here).
	db.hot.InvalidateRange(boundary, v.upper)
	db.stats.Splits.Add(1)

	// Publish a copy of the router order with the child after the parent;
	// the published slice is never edited.
	parts := db.partitions()
	pos := slices.Index(parts, parent) + 1
	routes := make([]*partition, 0, len(parts)+1)
	routes = append(append(append(routes, parts[:pos]...), child), parts[pos:]...)
	db.router.routes.Store(&routes)
	return nil
}

// newFullMergeIter builds the merge stream over v's whole on-disk state
// (all unsorted tables + the sorted run).
func (v *version) newFullMergeIter() *mergeIter {
	var iters []recIter
	for _, t := range v.uns.Tables() {
		iters = append(iters, t.Reader.NewMaintIterator())
	}
	iters = append(iters, v.srt.NewMaintIterator())
	return newMergeIter(iters)
}
