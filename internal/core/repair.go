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
//   - Per-partition hash-index checkpoints are discarded (recovery rebuilds
//     the index from the tables), and the manifest is rewritten from the
//     surviving files. If the manifest itself is unreadable, the partition
//     layout is reconstructed from the directory shape, with every salvaged
//     table treated as unsorted (the probe path tolerates overlap; the
//     sorted invariants cannot be re-proven cheaply).
//
// WAL files are kept untouched: the WAL reader already self-heals by
// stopping replay at the first torn record, so recovery handles them.
//
// The report enumerates every file dropped or rewritten and the key ranges
// affected, so an operator knows exactly what was lost. A repaired DB must
// reopen cleanly and pass VerifyIntegrity.

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
	// ManifestRebuilt is true when the manifest was unreadable and the
	// partition layout was reconstructed from the directory shape.
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
		b.WriteString("manifest: unreadable, rebuilt from directory scan\n")
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

// Repair salvages the UniKV database in dir. The database must not be
// open (Repair takes the same directory lock as Open). It returns the
// loss report; a non-nil report is returned even alongside an error so
// partial progress is visible.
func Repair(dir string, opts Options) (*RepairReport, error) {
	opts = opts.Sanitize()
	fs := opts.FS
	lock, err := fs.TryLockDir(dir)
	if err != nil {
		if errors.Is(err, vfs.ErrLocked) {
			return nil, fmt.Errorf("%w: %s", ErrDBLocked, dir)
		}
		return nil, err
	}
	defer lock.Release()
	r := &repairer{
		fs:       fs,
		dir:      dir,
		opts:     opts,
		report:   &RepairReport{},
		logValid: make(map[uint32]int64),
	}
	if err := r.run(); err != nil {
		return r.report, classified(err)
	}
	return r.report, nil
}

type repairer struct {
	fs     vfs.FS
	dir    string
	opts   Options
	report *RepairReport
	state  *manifest.State

	nextFile uint64           // file-number allocator for rewritten tables
	logValid map[uint32]int64 // surviving log -> valid byte length
	maxLog   uint32
	maxSeq   uint64
}

func (r *repairer) lostDir() string { return filepath.Join(r.dir, "lost") }

// toLost moves path into dir/lost/, prefixing the base name with its
// source directory so same-numbered files from different partitions do
// not collide.
func (r *repairer) toLost(path string) error {
	if err := r.fs.MkdirAll(r.lostDir()); err != nil {
		return err
	}
	prefix := filepath.Base(filepath.Dir(path))
	dst := filepath.Join(r.lostDir(), prefix+"-"+filepath.Base(path))
	if err := r.fs.Rename(path, dst); err != nil {
		return err
	}
	return r.fs.SyncDir(r.lostDir())
}

func (r *repairer) run() error {
	if err := r.loadState(); err != nil {
		return err
	}
	if err := r.repairLogs(); err != nil {
		return err
	}
	if err := r.repairPartitions(); err != nil {
		return err
	}
	return r.finish()
}

// loadState reads the manifest if it is intact, otherwise reconstructs
// the partition layout from the directory shape.
func (r *repairer) loadState() error {
	man, err := manifest.Open(r.fs, r.dir)
	if err == nil {
		r.state = man.State()
		man.Close()
		r.nextFile, r.maxSeq = r.state.NextFileNum, r.state.LastSeq
		if len(r.state.Partitions) > 0 {
			return nil
		}
	} else if Classify(err) != ClassCorruption {
		return err
	}
	// The manifest rides the self-healing WAL format, so a corrupt early
	// record silently truncates replay instead of failing — in the worst
	// case to an empty state that would make Open bootstrap a fresh DB on
	// top of the surviving tables. Tables on disk with no partition in the
	// state is that signature: fall back to the directory rebuild rather
	// than trust the hollow manifest.
	state, tables, err := r.rebuildState()
	if err != nil || r.state != nil && !tables {
		return err
	}
	r.state, r.nextFile, r.maxSeq, r.report.ManifestRebuilt = state, 0, 0, true
	return nil
}

// rebuildState reconstructs a State from the directory shape: every p*
// directory becomes a partition holding all of its tables as unsorted
// (ordered by file number, approximating flush order), and tables reports
// whether there were any. Lower bounds are assigned in a later pass, once
// table key ranges are known.
func (r *repairer) rebuildState() (state *manifest.State, tables bool, err error) {
	state = manifest.NewState()
	names, err := r.fs.List(r.dir)
	if err != nil {
		return nil, false, err
	}
	for _, name := range names {
		pid, ok := parsePartDir(name)
		if !ok {
			continue
		}
		pdir := filepath.Join(r.dir, name)
		entries, err := r.fs.List(pdir)
		if err != nil {
			continue // not a directory
		}
		meta := &manifest.PartitionMeta{ID: pid}
		var nums []uint64
		for _, e := range entries {
			switch n, kind, ok := parseFileName(e); {
			case ok && kind == fileTable:
				nums = append(nums, n)
			case ok && kind == fileWAL:
				if meta.WALNum == 0 || n < meta.WALNum {
					meta.WALNum = n
				}
			}
		}
		slices.Sort(nums)
		for _, n := range nums {
			meta.Unsorted = append(meta.Unsorted, tableMeta(n, sstable.Props{})) // read back by repairTable
		}
		tables = tables || len(nums) > 0
		state.Partitions[pid] = meta
		if pid >= state.NextPartID {
			state.NextPartID = pid + 1
		}
	}
	return state, tables, nil
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
		if n > r.maxLog {
			r.maxLog = n
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
			r.report.LogsDropped = append(r.report.LogsDropped, DroppedFile{
				Path:   path,
				Reason: fmt.Sprintf("no valid frame: %v", verr),
			})
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
		r.report.LogsTruncated = append(r.report.LogsTruncated, LogTruncation{
			Log: n, OldSize: size, NewSize: valid,
		})
	}
	return nil
}

// repairPartitions verifies every table, drops corrupt ones, rewrites
// tables with dangling value pointers, recomputes per-partition log sets,
// and discards hash-index checkpoints.
func (r *repairer) repairPartitions() error {
	rebuilt := r.report.ManifestRebuilt
	type bound struct {
		meta *manifest.PartitionMeta
		min  []byte
		ok   bool
	}
	var bounds []bound
	for _, meta := range r.state.SortedPartitions() {
		pdir := filepath.Join(r.dir, fmt.Sprintf("p%d", meta.ID))
		known := map[uint64]bool{} // tables kept; any other on disk is an orphan
		logs := make(map[uint32]bool)
		var minKey []byte
		haveMin := false
		note := func(k []byte) {
			if !haveMin || bytes.Compare(k, minKey) < 0 {
				minKey = append([]byte(nil), k...)
				haveMin = true
			}
		}
		repairTier := func(tier []manifest.TableMeta) ([]manifest.TableMeta, error) {
			out := tier[:0]
			for _, tm := range tier {
				nm, kept, err := r.repairTable(meta.ID, pdir, tm, logs)
				if err != nil {
					return nil, err
				}
				if kept {
					out = append(out, nm)
					known[nm.FileNum] = true // rewrites land under fresh numbers
					if nm.Count > 0 {
						note(nm.Smallest)
					}
					if nm.MaxSeq > r.maxSeq {
						r.maxSeq = nm.MaxSeq
					}
				}
			}
			return out, nil
		}
		var err error
		if meta.Unsorted, err = repairTier(meta.Unsorted); err != nil {
			return err
		}
		if meta.Sorted, err = repairTier(meta.Sorted); err != nil {
			return err
		}
		// Orphans and stale checkpoints: unreferenced tables are crashed
		// merge/split outputs whose records live on in the inputs; hash
		// checkpoints are discarded so recovery rebuilds the index from
		// the repaired tables.
		entries, err := r.fs.List(pdir)
		if err == nil {
			for _, e := range entries {
				switch n, kind, ok := parseFileName(e); {
				case ok && kind == fileTable && !known[n]:
					if err := r.toLost(filepath.Join(pdir, e)); err != nil {
						return err
					}
					r.report.OrphansMoved = append(r.report.OrphansMoved, filepath.Join(pdir, e))
				case ok && kind == fileCkpt:
					r.fs.Remove(filepath.Join(pdir, e))
				}
			}
		}
		meta.HashCkpt = 0
		meta.Logs = meta.Logs[:0]
		for n := range logs {
			meta.Logs = append(meta.Logs, n)
		}
		slices.Sort(meta.Logs)
		if rebuilt && !haveMin && meta.WALNum != 0 {
			// No table survived to bound the partition: its WALs' smallest
			// key does, replayed as recovery will (best effort — whatever
			// replays before a read error counts).
			mem := newMemtable()
			for _, n := range walNumsFrom(r.fs, pdir, meta.WALNum) {
				_ = replayWAL(r.fs, walName(pdir, n), mem)
			}
			if it := mem.NewIterator(); it.First() {
				minKey, haveMin = slices.Clone(it.Record().Key), true
			}
		}
		bounds = append(bounds, bound{meta: meta, min: minKey, ok: haveMin})
	}
	if rebuilt {
		// Assign partition boundaries from the salvaged key ranges: order
		// by minimum key, first partition open at the bottom. Partitions
		// with no surviving data (and no WAL) hold nothing routable — drop
		// them from the layout.
		kept := bounds[:0]
		for _, b := range bounds {
			if b.ok {
				kept = append(kept, b)
			} else {
				delete(r.state.Partitions, b.meta.ID)
			}
		}
		slices.SortFunc(kept, func(a, b bound) int { return bytes.Compare(a.min, b.min) })
		for i, b := range kept {
			if i == 0 {
				b.meta.Lower = nil
			} else {
				b.meta.Lower = b.min
			}
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
		if r.fs.Exists(path) {
			if err := r.toLost(path); err != nil {
				return tm, false, err
			}
		}
		r.report.TablesDropped = append(r.report.TablesDropped, DroppedFile{
			Partition: pid,
			Path:      path,
			Smallest:  tm.Smallest,
			Largest:   tm.Largest,
			Reason:    reason,
		})
		return tm, false, nil
	}
	f, err := r.fs.Open(path)
	if err != nil {
		return drop(fmt.Sprintf("unreadable: %v", err))
	}
	rdr, err := sstable.Open(f)
	if err != nil {
		f.Close()
		if Classify(err) == ClassCorruption {
			return drop(fmt.Sprintf("corrupt: %v", err))
		}
		return tm, false, err
	}
	defer rdr.Close()
	if _, err := rdr.VerifyChecksums(nil); err != nil {
		if Classify(err) == ClassCorruption {
			return drop(fmt.Sprintf("corrupt: %v", err))
		}
		return tm, false, err
	}
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
	num := r.allocFileNum()
	nf, err := r.fs.Create(tableName(pdir, num))
	if err != nil {
		return tm, false, err
	}
	b := sstable.NewBuilder(nf, sstable.BuilderOptions{BlockSize: r.opts.BlockSize})
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
	if err := r.toLost(path); err != nil {
		return tm, false, err
	}
	r.report.TablesRewritten++
	r.report.TablesDropped = append(r.report.TablesDropped, DroppedFile{
		Partition: pid,
		Path:      path,
		Smallest:  tm.Smallest,
		Largest:   tm.Largest,
		Reason:    fmt.Sprintf("%d record(s) pointed into lost log bytes; survivors rewritten to %08d.sst", dangling, num),
	})
	return tableMeta(num, props), true, nil
}

// allocFileNum hands out file numbers above everything observed so far.
func (r *repairer) allocFileNum() uint64 {
	if r.nextFile == 0 {
		r.nextFile = 1
	}
	n := r.nextFile
	r.nextFile++
	return n
}

// finish bumps the allocator counters past everything observed and writes
// the rebuilt manifest.
func (r *repairer) finish() error {
	// File numbers: above every surviving table, WAL, and rewrite output.
	maxFile := r.nextFile
	for _, meta := range r.state.Partitions {
		for _, t := range meta.Unsorted {
			if t.FileNum >= maxFile {
				maxFile = t.FileNum + 1
			}
		}
		for _, t := range meta.Sorted {
			if t.FileNum >= maxFile {
				maxFile = t.FileNum + 1
			}
		}
		if meta.WALNum >= maxFile {
			maxFile = meta.WALNum + 1
		}
	}
	if maxFile == 0 {
		maxFile = 1
	}
	r.state.NextFileNum = maxFile
	if r.maxSeq > r.state.LastSeq {
		r.state.LastSeq = r.maxSeq
	}
	if r.maxLog >= r.state.NextLogNum {
		r.state.NextLogNum = r.maxLog + 1
	}
	if r.state.NextPartID == 0 {
		r.state.NextPartID = 1
	}
	return manifest.Rewrite(r.fs, r.dir, r.state)
}
