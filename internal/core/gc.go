package core

import (
	"unikv/internal/manifest"
	"unikv/internal/record"
	"unikv/internal/sorted"
)

// needsGC reports whether v's partition has accumulated enough dead value
// bytes — GCRatio of its referenced log bytes — to rewrite its logs (the
// paper's greedy policy: GC the partition with the most garbage; each
// partition checks itself where it publishes a version), and names a log
// besides the active one — with nothing to collect the pool would find it
// due again behind its own GC, forever.
func (v *version) needsGC() bool {
	opts := &v.p.db.opts
	if opts.exp.DisableKVSeparation || v.logBytes == 0 ||
		float64(v.p.garbageBytes.Load()) < opts.GCRatio*float64(v.logBytes) {
		return false
	}
	active, ok := v.p.db.vl.ActiveNum()
	return len(v.logs) > 1 || !ok || !v.hasLog(active)
}

// gc is the GC job: it rewrites the live values of pinned v out of the
// partition's collectable logs into a fresh dedicated log and rewrites the
// SortedStore run with updated pointers, with no partition lock until the
// commit (concurrent reads resolve pointers against the old logs, which live
// as long as a version naming them). Crash consistency follows the paper's
// protocol:
//
//  1. identify valid KV pairs (scan the SortedStore's keys+pointers),
//  2. read the live values and write them to a new log file,
//  3. write all keys with new pointers to new SortedStore tables,
//  4. commit — the manifest batch is the GC_done marker — and publish; the
//     old tables and the collected logs go when the last version naming
//     them does (for a log: in any partition).
//
// A failure before step 4 leaves the old state intact (the GC simply redoes);
// its new files go as the job ends or, after a crash, at the next open.
//
// v's SortedStore and log set are the partition's until the commit: only
// structural jobs change them and those hold maintMu, as the caller does.
func (p *partition) gc(v *version) error {
	db := p.db

	// Collect every log the partition names but the engine-wide active one,
	// which merges still append to (a log a merge rotated past stays on the
	// disk while that merge's job names it).
	active, hasActive := db.vl.ActiveNum()
	var logs []uint32 // the log set after the GC
	if hasActive && v.hasLog(active) {
		logs = []uint32{active}
	}
	if len(logs) == len(v.logs) {
		return nil
	}

	j := db.beginJob()
	defer db.endJob(j)
	d, err := db.vl.NewDedicatedLog(p.id)
	if err != nil {
		return err
	}
	defer d.Abort()
	w := p.newTableWriter(j, db.opts.TargetTableSize)
	defer w.abort()
	it := v.srt.NewMaintIterator()
	var rewritten int64
	var ptrBuf [record.EncodedPtrLen]byte
	for ok := it.First(); ok; ok = it.Next() {
		rec := it.Record()
		if rec.Kind == record.KindSetPtr {
			ptr, err := record.DecodePtr(rec.Value)
			if err != nil {
				return err
			}
			if !hasActive || ptr.LogNum != active {
				// The frame moves log to log through the rewrite log's staging
				// buffer, bypassing the value cache: GC touches every live value
				// once and would otherwise flush the hot set with dead-cold data.
				nptr, err := d.Rewrite(ptr)
				if err != nil {
					return err
				}
				rewritten += int64(ptr.Length)
				rec.Value = nptr.Encode(ptrBuf[:0])
			}
		}
		if _, _, err := w.add(rec); err != nil {
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
	if nonEmpty {
		logs = mergeLogs(logs, d.Num())
	}
	// New tables and the rewrite log must be findable after a crash before
	// the GC_done commit (d.Finish synced the vlog directory).
	if err := db.fs.SyncDir(p.dir); err != nil {
		return err
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	next := p.cur.Load().successor()
	next.srt, next.logs = sorted.New(tables), logs
	if err := p.commit(next, manifest.LastSeq(db.seq.Load()), db.nextFileEdit()); err != nil {
		return err
	}
	p.garbageBytes.Store(0)
	db.stats.GCs.Add(1)
	db.stats.GCBytesRewritten.Add(rewritten)
	return nil
}
