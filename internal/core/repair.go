package core

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"

	"unikv/internal/manifest"
	"unikv/internal/record"
	"unikv/internal/sstable"
	"unikv/internal/vfs"
	"unikv/internal/vlog"
)

// Offline repair (the RocksDB RepairDB idea adapted to UniKV's layout).
//
// Repair rescans the directory and rebuilds a consistent database from
// whatever survives, preferring explicit, bounded data loss over a DB that
// refuses to open (or worse, opens and serves corrupt values):
//
//   - Value logs are scanned frame by frame; a torn or corrupt tail is
//     truncated at the last valid frame boundary, and a log whose very
//     first frame is bad is moved aside wholesale.
//   - Tables that fail checksum verification (any block, any record) are
//     moved into dir/lost/ — repair never edits a table in place, so the
//     bytes stay available for manual forensics.
//   - Surviving tables are rescanned for value pointers that now dangle
//     (into a truncated region or a dropped log); a table with dangling
//     pointers is rewritten without them (the original also goes to lost/).
//   - Tables the manifest names but the directory lacks are reported with
//     the key range the manifest records for them.
//   - Per-partition hash-index checkpoints are dropped from the state, and
//     the manifest is rewritten from the surviving files. If Open would
//     refuse the manifest (loadState) for more than missing files, the
//     partition layout is reconstructed from the directory shape, with
//     every salvaged table treated as unsorted (the probe path tolerates
//     overlap; the sorted invariants cannot be re-proven cheaply).
//
// WAL files are kept untouched: the WAL reader already self-heals by
// stopping replay at the first torn record, so recovery handles them.
//
// Repair then opens the database through the same body as Open — recovery
// replays the WALs, rebuilds the hash indexes, derives the counters and
// sweeps the files the new state does not name — and fails unless
// VerifyIntegrityReport comes back empty. The report enumerates every file
// dropped or rewritten and the key ranges affected, so an operator knows
// exactly what was lost.

// DroppedFile records one file repair moved into dir/lost/.
type DroppedFile struct {
	Partition uint32 // owning partition; 0 for shared files (value logs)
	Path      string // original path, before the move into lost/
	Smallest  []byte // affected key range, when known (tables)
	Largest   []byte
	Reason    string // why the file was dropped ("checksum mismatch", ...)
}

// LogTruncation records one value log whose torn tail was cut back to the
// last valid frame boundary.
type LogTruncation struct {
	Log     uint32
	OldSize int64
	NewSize int64
}

// RepairReport is the loss report Repair returns: everything it dropped,
// truncated, or rewrote while salvaging the database.
type RepairReport struct {
	// ManifestRebuilt is true when the manifest could not describe the
	// directory and the partition layout was reconstructed from its shape.
	ManifestRebuilt bool
	// TablesDropped lists tables moved to lost/ because they failed
	// verification (or lost every record to dangling pointers).
	TablesDropped []DroppedFile
	// LogsDropped lists value logs moved to lost/ (no valid prefix).
	LogsDropped []DroppedFile
	// LogsTruncated lists value logs whose torn tails were cut back.
	LogsTruncated []LogTruncation
	// OrphansMoved lists unreferenced files moved to lost/ as a
	// precaution; they held no committed data, so this is not loss.
	OrphansMoved []string
	// TablesRewritten counts tables rewritten to drop dangling pointers.
	TablesRewritten int
	// PointersDropped counts individual records dropped because their
	// value pointer referenced truncated or dropped log bytes.
	PointersDropped int
}

// DataLost reports whether the repair dropped any committed data (as
// opposed to only truncating unacknowledged tails and moving orphans).
func (r *RepairReport) DataLost() bool {
	return len(r.TablesDropped) > 0 || len(r.LogsDropped) > 0 || r.PointersDropped > 0
}

// String renders the loss report for operators (unikv-ctl repair prints
// this verbatim).
func (r *RepairReport) String() string {
	var b strings.Builder
	if r.ManifestRebuilt {
		b.WriteString("manifest: does not describe the directory, rebuilt from directory scan\n")
	}
	for _, t := range r.LogsTruncated {
		fmt.Fprintf(&b, "truncated: value log %d %d -> %d bytes (torn tail)\n", t.Log, t.OldSize, t.NewSize)
	}
	for _, d := range r.LogsDropped {
		fmt.Fprintf(&b, "dropped:   %s (%s)\n", d.Path, d.Reason)
	}
	for _, d := range r.TablesDropped {
		fmt.Fprintf(&b, "dropped:   %s (%s)", d.Path, d.Reason)
		if len(d.Smallest) > 0 || len(d.Largest) > 0 {
			fmt.Fprintf(&b, " keys [%q, %q]", d.Smallest, d.Largest)
		}
		b.WriteByte('\n')
	}
	if r.TablesRewritten > 0 {
		fmt.Fprintf(&b, "rewritten: %d table(s), %d dangling value pointer(s) dropped\n",
			r.TablesRewritten, r.PointersDropped)
	}
	for _, o := range r.OrphansMoved {
		fmt.Fprintf(&b, "orphan:    %s moved to lost/ (held no committed data)\n", o)
	}
	if b.Len() == 0 {
		return "repair: no damage found\n"
	}
	return b.String()
}

// Repair salvages the UniKV database in dir, then opens and verifies it.
// The database must not be open (Repair takes the same directory lock as
// Open). It returns the loss report; a non-nil report is returned even
// alongside an error so partial progress is visible.
func Repair(dir string, opts Options) (*RepairReport, error) {
	opts = opts.sanitize()
	lock, err := lockDir(opts.FS, dir)
	if err != nil {
		return nil, err
	}
	r := &repairer{fs: opts.FS, dir: dir, opts: opts, report: &RepairReport{}, logValid: map[uint32]int64{}}
	if err := r.salvage(); err != nil {
		lock.Release()
		return r.report, classified(err)
	}
	db, err := open(dir, opts, lock)
	if err != nil {
		return r.report, classified(err)
	}
	reports, err := db.VerifyIntegrityReport()
	if err == nil && len(reports) > 0 {
		err = WithClass(ClassCorruption, fmt.Errorf("unikv: the repaired database does not verify: %s", reports[0]))
	}
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	return r.report, err
}

type repairer struct {
	fs     vfs.FS
	dir    string
	opts   Options
	report *RepairReport
	state  *manifest.State
	files  []fileID // the directory scan (diskFiles)

	nextFile uint64           // number of the next rewritten table: above every file on disk
	logValid map[uint32]int64 // surviving log -> valid byte length
}

// toLost moves path into dir/lost/, prefixing the base name with its
// source directory so same-numbered files from different partitions do
// not collide.
func (r *repairer) toLost(path string) error {
	lost := filepath.Join(r.dir, "lost")
	if err := r.fs.MkdirAll(lost); err != nil {
		return err
	}
	prefix := filepath.Base(filepath.Dir(path))
	if err := r.fs.Rename(path, filepath.Join(lost, prefix+"-"+filepath.Base(path))); err != nil {
		return err
	}
	return r.fs.SyncDir(lost)
}

// salvage repairs the files and writes the state that describes them. A
// state Open would refuse is rebuilt from the directory, unless its one
// fault is naming files the directory lacks: then those are dropped from it.
func (r *repairer) salvage() error {
	state, _, files, err := loadState(r.fs, r.dir)
	r.files = files
	if Classify(err) == ClassCorruption {
		if state != nil {
			r.dropMissing(state)
		}
		if !errors.Is(err, errNamesMissing) {
			state, r.report.ManifestRebuilt = r.rebuildState(), true
		}
		err = nil
	}
	if err != nil {
		return err
	}
	r.state, r.nextFile = state, state.NextFileNum
	for _, f := range r.files {
		r.nextFile = max(r.nextFile, f.num+1)
	}
	if err := r.repairLogs(); err != nil {
		return err
	}
	if err := r.repairPartitions(); err != nil {
		return err
	}
	return manifest.Rewrite(r.fs, r.dir, r.state)
}

// dropMissing reports every table state names that the directory lacks,
// with the key range state records for it, and takes it out of state; a
// missing WAL pointer moves to the next WAL on disk, if any.
func (r *repairer) dropMissing(state *manifest.State) {
	for _, meta := range state.Partitions {
		missing := func(tm manifest.TableMeta) bool {
			if _, ok := slices.BinarySearchFunc(r.files, fileID{meta.ID, fileTable, tm.FileNum}, compareFiles); ok {
				return false
			}
			r.report.TablesDropped = append(r.report.TablesDropped, DroppedFile{Partition: meta.ID,
				Path: tableName(partDir(r.dir, meta.ID), tm.FileNum), Smallest: tm.Smallest, Largest: tm.Largest,
				Reason: "named by the manifest, missing from disk"})
			return true
		}
		meta.Unsorted = slices.DeleteFunc(meta.Unsorted, missing)
		meta.Sorted = slices.DeleteFunc(meta.Sorted, missing)
		if meta.WALNum != 0 {
			meta.WALNum = append(walNumsFrom(r.files, meta.ID, meta.WALNum), 0)[0]
		}
	}
}

// rebuildState reconstructs a State from the directory shape: every
// partition directory holding files becomes a partition with all of its
// tables as unsorted (ordered by file number, approximating flush order)
// and its oldest WAL. Lower bounds are assigned in a later pass, once
// table key ranges are known.
func (r *repairer) rebuildState() *manifest.State {
	state := manifest.NewState()
	for _, f := range r.files { // by partition, kind and number
		meta := state.Partitions[f.part]
		if meta == nil {
			meta = &manifest.PartitionMeta{ID: f.part}
			state.Partitions[f.part] = meta
		}
		switch {
		case f.kind == fileTable:
			meta.Unsorted = append(meta.Unsorted, tableMeta(f.num, sstable.Props{})) // read back by repairTable
		case f.kind == fileWAL && meta.WALNum == 0:
			meta.WALNum = f.num
		}
	}
	return state
}

// repairLogs scans every value log and truncates torn tails at the last
// valid frame boundary. A log with no valid prefix moves to lost/.
// Surviving valid lengths feed the dangling-pointer filter.
func (r *repairer) repairLogs() error {
	vdir := filepath.Join(r.dir, "vlog")
	names, err := r.fs.List(vdir)
	if err != nil {
		return nil // no vlog directory: nothing KV-separated yet
	}
	for _, name := range names {
		n, ok := vlog.ParseLogName(name)
		if !ok {
			continue
		}
		path := filepath.Join(vdir, name)
		f, err := r.fs.Open(path)
		if err != nil {
			return err
		}
		size, err := f.Size()
		if err != nil {
			f.Close()
			return err
		}
		_, valid, verr := vlog.ScanValidPrefix(f, size, nil)
		f.Close()
		if verr == nil {
			r.logValid[n] = size
			continue
		}
		if Classify(verr) != ClassCorruption {
			return verr
		}
		if valid == 0 {
			if err := r.toLost(path); err != nil {
				return err
			}
			r.report.LogsDropped = append(r.report.LogsDropped, DroppedFile{Path: path, Reason: fmt.Sprintf("no valid frame: %v", verr)})
			continue
		}
		data, err := r.fs.ReadFile(path)
		if err != nil {
			return err
		}
		if err := r.fs.WriteFile(path, data[:valid]); err != nil {
			return err
		}
		if err := r.fs.SyncDir(vdir); err != nil {
			return err
		}
		r.logValid[n] = valid
		r.report.LogsTruncated = append(r.report.LogsTruncated, LogTruncation{Log: n, OldSize: size, NewSize: valid})
	}
	return nil
}

// repairPartitions verifies every table, drops corrupt ones, rewrites
// tables with dangling value pointers, recomputes per-partition log sets,
// and discards hash-index checkpoints.
func (r *repairer) repairPartitions() error {
	lows := map[uint32][]byte{} // each partition's smallest salvaged key
	for _, meta := range r.state.SortedPartitions() {
		pdir := partDir(r.dir, meta.ID)
		// Orphans: unreferenced tables are crashed merge/split outputs whose
		// records live on in the inputs.
		tables := slices.Concat(meta.Unsorted, meta.Sorted)
		for _, f := range r.files {
			named := func(tm manifest.TableMeta) bool { return tm.FileNum == f.num }
			if f.part == meta.ID && f.kind == fileTable && !slices.ContainsFunc(tables, named) {
				if err := r.toLost(tableName(pdir, f.num)); err != nil {
					return err
				}
				r.report.OrphansMoved = append(r.report.OrphansMoved, tableName(pdir, f.num))
			}
		}
		note := func(k []byte) {
			if low, ok := lows[meta.ID]; !ok || bytes.Compare(k, low) < 0 {
				lows[meta.ID] = slices.Clone(k)
			}
		}
		logs := make(map[uint32]bool)
		for _, tier := range []*[]manifest.TableMeta{&meta.Unsorted, &meta.Sorted} {
			out := (*tier)[:0]
			for _, tm := range *tier {
				nm, kept, err := r.repairTable(meta.ID, pdir, tm, logs)
				if err != nil {
					return err
				}
				if kept {
					out = append(out, nm)
					if nm.Count > 0 {
						note(nm.Smallest)
					}
				}
			}
			*tier = out
		}
		meta.HashCkpt = 0 // the open that ends the repair rebuilds the index and sweeps the file
		meta.Logs = meta.Logs[:0]
		for n := range logs {
			meta.Logs = append(meta.Logs, n)
		}
		slices.Sort(meta.Logs)
		if _, ok := lows[meta.ID]; !ok && r.report.ManifestRebuilt {
			// No table survived to bound the partition: its WALs' smallest
			// key does, replayed as recovery will (best effort — whatever
			// replays before a read error counts).
			mem := newMemtable()
			for _, n := range walNumsFrom(r.files, meta.ID, meta.WALNum) {
				_ = replayWAL(r.fs, walName(pdir, n), mem)
			}
			if it := mem.NewIterator(); it.First() {
				note(it.Record().Key)
			}
		}
	}
	if !r.report.ManifestRebuilt {
		return nil
	}
	// Assign partition boundaries from the salvaged key ranges: order by
	// minimum key, first partition open at the bottom. Partitions with no
	// surviving data hold nothing routable — drop them from the layout.
	var ids []uint32
	for id := range r.state.Partitions {
		if _, ok := lows[id]; ok {
			ids = append(ids, id)
		} else {
			delete(r.state.Partitions, id)
		}
	}
	slices.SortFunc(ids, func(a, b uint32) int { return bytes.Compare(lows[a], lows[b]) })
	for i, id := range ids {
		r.state.Partitions[id].Lower = lows[id]
		if i == 0 {
			r.state.Partitions[id].Lower = nil
		}
	}
	return nil
}

// repairTable verifies one table. Corrupt tables move to lost/ (kept =
// false); intact tables are rescanned for dangling value pointers and
// rewritten without them if any are found. The surviving table's metadata
// is rebuilt from the file itself (the manifest copy may be stale or,
// after a manifest rebuild, absent). Referenced logs accumulate in logs.
func (r *repairer) repairTable(pid uint32, pdir string, tm manifest.TableMeta, logs map[uint32]bool) (manifest.TableMeta, bool, error) {
	path := tableName(pdir, tm.FileNum)
	drop := func(reason string) (manifest.TableMeta, bool, error) {
		r.report.TablesDropped = append(r.report.TablesDropped, DroppedFile{
			Partition: pid, Path: path, Smallest: tm.Smallest, Largest: tm.Largest, Reason: reason})
		return tm, false, r.toLost(path)
	}
	f, err := r.fs.Open(path) // loadState made sure every table the state names is there
	if err != nil {
		return tm, false, err
	}
	rdr, err := sstable.Open(f)
	if err != nil {
		f.Close()
	} else {
		defer rdr.Close()
		_, err = rdr.VerifyChecksums(nil)
	}
	if Classify(err) == ClassCorruption {
		return drop(fmt.Sprintf("corrupt: %v", err))
	} else if err != nil {
		return tm, false, err
	}
	tm.Smallest, tm.Largest = rdr.Smallest(), rdr.Largest() // the report's range, also after a rebuild
	// Dangling-pointer scan: every record checksummed clean, so iterator
	// errors below would be unexpected (fail the repair rather than guess).
	var keep []record.Record
	dangling := 0
	it := rdr.NewIterator()
	for ok := it.First(); ok; ok = it.Next() {
		rec := it.Record()
		if rec.Kind == record.KindSetPtr {
			ptr, err := record.DecodePtr(rec.Value)
			if err != nil {
				return tm, false, err
			}
			valid, live := r.logValid[ptr.LogNum]
			if !live || int64(ptr.Offset)+vlog.HeaderLen+int64(ptr.Length) > valid {
				dangling++
				continue
			}
			logs[ptr.LogNum] = true
		}
		keep = append(keep, rec.Clone())
	}
	if err := it.Err(); err != nil {
		return tm, false, err
	}
	if dangling == 0 {
		return tableMeta(tm.FileNum, sstable.Props{
			Count: rdr.Count(), MinSeq: rdr.MinSeq(), MaxSeq: rdr.MaxSeq(),
			Smallest: rdr.Smallest(), Largest: rdr.Largest(), Size: rdr.Size(),
		}), true, nil
	}
	r.report.PointersDropped += dangling
	if len(keep) == 0 {
		return drop(fmt.Sprintf("all %d record(s) pointed into lost log bytes", dangling))
	}
	// Rewrite without the dangling records, then retire the original to
	// lost/ so the dropped pointers stay inspectable.
	num := r.nextFile
	r.nextFile++
	nf, err := r.fs.Create(tableName(pdir, num))
	if err != nil {
		return tm, false, err
	}
	b := sstable.NewBuilder(nf, sstable.BuilderOptions{BlockSize: r.opts.exp.BlockSize})
	for _, rec := range keep {
		b.Add(rec)
	}
	props, err := b.Finish()
	if err != nil {
		nf.Close()
		return tm, false, err
	}
	if err := nf.Close(); err != nil {
		return tm, false, err
	}
	if err := r.fs.SyncDir(pdir); err != nil {
		return tm, false, err
	}
	r.report.TablesRewritten++
	_, _, err = drop(fmt.Sprintf("%d record(s) pointed into lost log bytes; survivors rewritten to %08d.sst", dangling, num))
	return tableMeta(num, props), err == nil, err
}
