package core

import (
	"unikv/internal/manifest"
	"unikv/internal/record"
	"unikv/internal/sorted"
)

// needsGC reports whether v's partition has accumulated enough dead value
// bytes — GCRatio of its referenced log bytes — to rewrite its logs (the
// paper's greedy policy: GC the partition with the most garbage; each
// partition checks itself where it publishes a version).
func (v *version) needsGC() bool {
	opts := &v.p.db.opts
	return !opts.DisableKVSeparation && v.logBytes > 0 &&
		float64(v.p.garbageBytes.Load()) >= opts.GCRatio*float64(v.logBytes)
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
// A crash before step 4 leaves the old state intact (the GC simply redoes);
// the orphaned new files are swept at the next open.
//
// v's SortedStore and log set are the partition's until the commit: only
// structural jobs change them and those hold maintMu, as the caller does.
func (p *partition) gc(v *version) error {
	db := p.db

	// Collectable logs: everything the partition references except the
	// engine-wide active log (still being appended by merges).
	collect := map[uint32]bool{}
	activeNum, hasActive := db.vl.ActiveNum()
	minPinned, hasPinned := db.vl.MinPinned()
	var logs []uint32 // the log set after the GC
	for _, n := range v.logs {
		// A pinned append window means an in-flight merge may be
		// writing into this or any later log; leave them alone.
		if (hasActive && n == activeNum) || (hasPinned && n >= minPinned) {
			logs = append(logs, n)
		} else {
			collect[n] = true
		}
	}
	if len(collect) == 0 {
		return nil
	}

	d, err := db.vl.NewDedicatedLog(p.id)
	if err != nil {
		return err
	}
	w := p.newTableWriter(p.dir)
	defer w.close()
	it := v.srt.NewMaintIterator()
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
	if nonEmpty {
		logs = mergeLogs(logs, map[uint32]bool{d.Num(): true})
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
