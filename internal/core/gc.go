package core

import (
	"unikv/internal/manifest"
	"unikv/internal/record"
)

// maybeGCLocked runs value-log GC when the partition's dead bytes exceed
// GCRatio of its referenced log bytes (the paper's greedy policy: GC the
// partition with the most garbage; with inline scheduling each partition
// checks itself at its merge points). Requires p.mu held for writing.
func (p *partition) maybeGCLocked() error {
	if p.db.opts.DisableKVSeparation {
		return nil
	}
	refBytes := p.logBytesLocked()
	if refBytes == 0 || float64(p.garbageBytes.Load()) < p.db.opts.GCRatio*float64(refBytes) {
		return nil
	}
	return p.gcTables(true)
}

// backgroundGC is the GC job: it re-checks the trigger, then runs the
// value rewrite without the partition lock (the SortedStore and log set
// are stable under maintMu; concurrent reads resolve pointers against the
// old logs, which survive until after the commit).
func (p *partition) backgroundGC() error {
	if p.db.opts.DisableKVSeparation {
		return nil
	}
	p.mu.RLock()
	refBytes := p.logBytesLocked()
	ok := refBytes > 0 && float64(p.garbageBytes.Load()) >= p.db.opts.GCRatio*float64(refBytes)
	p.mu.RUnlock()
	if !ok {
		return nil
	}
	return p.gcTables(false)
}

// gcTables rewrites the partition's live values out of its collectable
// logs into a fresh dedicated log and rewrites the SortedStore run with
// updated pointers. Crash consistency follows the paper's protocol:
//
//  1. identify valid KV pairs (scan the SortedStore's keys+pointers),
//  2. read the live values and write them to a new log file,
//  3. write all keys with new pointers to new SortedStore tables,
//  4. commit — the manifest batch is the GC_done marker — then delete the
//     old tables; old logs are removed once no partition references them.
//
// A crash before step 4 leaves the old state intact (the GC simply redoes);
// the orphaned new files are swept at the next open.
//
// locked means the caller holds p.mu for writing (inline mode); otherwise
// only the commit takes it.
func (p *partition) gcTables(locked bool) error {
	db := p.db

	// Collectable logs: everything the partition references except the
	// engine-wide active log (still being appended by merges). The set is
	// read under at least a read lock; it cannot change mid-GC because
	// only structural jobs mutate it and those hold maintMu.
	collect := map[uint32]bool{}
	activeNum, hasActive := db.vl.ActiveNum()
	minPinned, hasPinned := db.vl.MinPinned()
	if !locked {
		p.mu.RLock()
	}
	for n := range p.logs {
		if hasActive && n == activeNum {
			continue
		}
		// A pinned append window means an in-flight merge may be
		// writing into this or any later log; leave them alone.
		if hasPinned && n >= minPinned {
			continue
		}
		collect[n] = true
	}
	if !locked {
		p.mu.RUnlock()
	}
	if len(collect) == 0 {
		return nil
	}

	d, err := db.vl.NewDedicatedLog(p.id)
	if err != nil {
		return err
	}
	w := p.newTableWriter(p.dir)
	it := p.srt.NewMaintIterator()
	var rewritten int64
	var ptrBuf [record.EncodedPtrLen]byte
	for ok := it.First(); ok; ok = it.Next() {
		rec := it.Record()
		if rec.Kind != record.KindSetPtr {
			if err := w.add(rec); err != nil {
				return err
			}
			continue
		}
		ptr, err := record.DecodePtr(rec.Value)
		if err != nil {
			return err
		}
		if !collect[ptr.LogNum] {
			if err := w.add(rec); err != nil {
				return err
			}
			continue
		}
		// The frame moves log to log through the rewrite log's staging
		// buffer, bypassing the value cache: GC touches every live value
		// once and would otherwise flush the hot set with dead-cold data.
		nptr, err := d.Rewrite(ptr)
		if err != nil {
			return err
		}
		rewritten += int64(ptr.Length)
		if err := w.add(record.Record{
			Key: rec.Key, Seq: rec.Seq, Kind: record.KindSetPtr,
			Value: nptr.Encode(ptrBuf[:0]),
		}); err != nil {
			return err
		}
	}
	if err := it.Err(); err != nil {
		return err
	}
	tables, err := w.finish()
	if err != nil {
		return err
	}
	nonEmpty, err := d.Finish()
	if err != nil {
		return err
	}

	if !locked {
		p.mu.Lock()
		defer p.mu.Unlock()
	}

	// New log set: uncollected logs plus the rewrite target.
	newLogs := map[uint32]bool{}
	for n := range p.logs {
		if !collect[n] {
			newLogs[n] = true
		}
	}
	if nonEmpty {
		newLogs[d.Num()] = true
	}
	oldSorted := p.srt.Tables()
	oldLogs := p.logs
	p.logs = newLogs

	// New tables and the rewrite log must be findable after a crash before
	// the GC_done commit (d.Finish synced the vlog directory).
	if err := db.fs.SyncDir(p.dir); err != nil {
		return err
	}
	if err := db.man.Apply(
		manifest.SetSorted(p.id, tableMetas(tables)),
		manifest.SetLogs(p.id, p.logsSliceLocked()),
		manifest.LastSeq(db.seq.Load()),
		db.nextFileEdit(),
	); err != nil {
		p.logs = oldLogs
		return err
	}
	if nonEmpty {
		db.retainLogs([]uint32{d.Num()})
	}
	p.srt.ReplaceAll(tables)
	for _, t := range oldSorted {
		db.retireTable(p.dir, t.Meta.FileNum, t.Reader)
	}
	var released []uint32
	for n := range collect {
		released = append(released, n)
	}
	db.releaseLogs(released)
	p.garbageBytes.Store(0)
	db.stats.GCs.Add(1)
	db.stats.GCBytesRewritten.Add(rewritten)
	return nil
}
