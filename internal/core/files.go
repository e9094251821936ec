package core

import (
	"cmp"
	"fmt"
	"path/filepath"
	"slices"
	"sync"

	"unikv/internal/sstable"
	"unikv/internal/vfs"
)

// File lifetime is version membership (LevelDB's VersionSet::AddLiveFiles):
// a file leaves the disk, its reader closed, exactly when nothing live names
// it. A version names its tables, value logs, the WAL of each memtable and
// its hash checkpoint from publish until its last release; a job in flight,
// its outputs from before it creates them, and every value log from the one
// active when it began upward (a merge's uncommitted pointers reach into the
// shared active log, which may rotate under it). The active log is always
// live. At open the rule runs over the directory listing (sweepOrphans).

// fileKind is what a file holds.
type fileKind uint8

const (
	fileTable fileKind = iota
	fileWAL
	fileCkpt
	fileLog
)

var fileExts = [...]string{fileTable: ".sst", fileWAL: ".wal", fileCkpt: ".ckpt"}

// fileID names a partition's file, or a value log (partition 0).
type fileID struct {
	part uint32
	kind fileKind
	num  uint64
}

func logFile(n uint32) fileID { return fileID{kind: fileLog, num: uint64(n)} }

func (p *partition) file(kind fileKind, num uint64) fileID { return fileID{p.id, kind, num} }

// liveFiles is the registry behind the rule; its mutex ranks after
// partition.mu, which publish holds.
type liveFiles struct {
	sync.Mutex
	refs    map[fileID]int             // live versions and jobs naming each file
	readers map[fileID]*sstable.Reader // every open table reader, closed with its file
	jobs    map[*job]bool
	// current is each partition's current version (a log's owners, see
	// hold); stale, the partitions whose share of a log another one's
	// publish moved, until afterCommit republishes them.
	current map[*partition]*version
	stale   map[*partition]bool
	owners  map[uint32]int64 // hold's scratch
}

// job is an in-flight entry: its outputs, and every value log numbered
// logsFrom (the active log when it began, 0 with none) or above.
type job struct {
	names    []fileID
	logsFrom uint32
}

// beginJob registers a job; endJob drops it.
func (db *DB) beginJob() *job {
	j := &job{}
	db.liveFiles.Lock()
	j.logsFrom, _ = db.vl.ActiveNum()
	db.liveFiles.jobs[j] = true
	db.liveFiles.Unlock()
	return j
}

// name adds f to j's files; call it before creating f.
func (db *DB) name(j *job, f fileID) {
	db.liveFiles.Lock()
	j.names = append(j.names, f)
	db.liveFiles.refs[f]++
	db.liveFiles.Unlock()
}

func (db *DB) endJob(j *job) { db.drop(nil, j) }

// each calls fn on every file v names.
func (v *version) each(fn func(fileID)) {
	for _, t := range v.uns.Tables() {
		fn(v.p.file(fileTable, t.Meta.FileNum))
	}
	for _, t := range v.srt.Tables() {
		fn(v.p.file(fileTable, t.Meta.FileNum))
	}
	for _, n := range v.wals {
		if n != 0 {
			fn(v.p.file(fileWAL, n))
		}
	}
	if v.ckpt != 0 {
		fn(v.p.file(fileCkpt, v.ckpt))
	}
	for _, n := range v.logs {
		fn(logFile(n))
	}
}

// hold names next's files and makes it its partition's current version. It
// returns the partition's share of its value logs: each log's size divided
// by the number of current versions naming it (a log shared after a split
// counts half to each child until their lazy value splits disentangle it).
func (db *DB) hold(next *version) (share int64) {
	lf := &db.liveFiles
	lf.Lock()
	defer lf.Unlock()
	next.each(func(f fileID) { lf.refs[f]++ })
	old := lf.current[next.p]
	lf.current[next.p] = next
	delete(lf.stale, next.p)
	moved, owners := old == nil || !slices.Equal(old.logs, next.logs), lf.owners
	clear(owners)
	for q, v := range lf.current {
		for _, n := range v.logs {
			owners[n]++
			if moved && q != next.p && next.hasLog(n) != (old != nil && old.hasLog(n)) {
				lf.stale[q] = true // next joined or left a log q names
			}
		}
	}
	for _, n := range next.logs {
		share += db.vl.SizeOf(n) / owners[n]
	}
	return share
}

// drop gives back what v names at its last release — or, with v nil, job
// j's names and log range as j ends — and removes what nothing names any
// more (best effort: the next open sweeps what a failed removal leaves).
func (db *DB) drop(v *version, j *job) {
	lf := &db.liveFiles
	lf.Lock()
	delete(lf.jobs, j)
	var dead []fileID
	unref := func(f fileID) {
		if lf.refs[f]--; lf.refs[f] > 0 {
			return
		}
		delete(lf.refs, f)
		if r := lf.readers[f]; r != nil {
			r.Close()
			delete(lf.readers, f)
		}
		if f.kind != fileLog || !db.logPinned(uint32(f.num)) {
			dead = append(dead, f) // a pinned log is looked at again as its job ends
		}
	}
	if v != nil {
		v.each(unref)
	} else {
		for _, f := range j.names {
			unref(f)
		}
		for _, n := range db.vl.LogNums() {
			if n >= j.logsFrom && lf.refs[logFile(n)] == 0 && !db.logPinned(n) {
				dead = append(dead, logFile(n))
			}
		}
	}
	lf.Unlock()
	for _, f := range dead {
		if f.kind == fileLog {
			db.vl.Remove(uint32(f.num))
		} else {
			db.fs.Remove(partFileName(db.partDir(f.part), f.kind, f.num))
		}
	}
}

// logPinned reports whether log n is live with no version naming it: it is
// active, or a job names it. Requires liveFiles held.
func (db *DB) logPinned(n uint32) bool {
	if active, ok := db.vl.ActiveNum(); ok && n == active {
		return true
	}
	for j := range db.liveFiles.jobs {
		if n >= j.logsFrom {
			return true
		}
	}
	return false
}

// sweepOrphans applies the rule to the directory listing at open, once the
// recovered versions are published: a job names every file on disk and
// ends, which removes what no version names — the outputs of jobs a crash
// interrupted, replaced WALs and checkpoints, an uncommitted split's child.
func (db *DB) sweepOrphans() {
	j := db.beginJob() // every log: none is active before the first merge
	for _, f := range diskFiles(db.fs, db.dir) {
		db.name(j, f)
	}
	db.endJob(j)
}

// diskFiles lists the numbered files of every partition directory under
// dir, ordered by partition, kind and number: the one directory scan behind
// the open-time sweep, WAL replay, the hollow-state check and Repair.
func diskFiles(fs vfs.FS, dir string) []fileID {
	var files []fileID
	dirs, _ := fs.List(dir)
	for _, d := range dirs {
		id, ok := parsePartDir(d)
		if !ok {
			continue
		}
		names, _ := fs.List(filepath.Join(dir, d))
		for _, name := range names {
			if num, kind, ok := parseFileName(name); ok {
				files = append(files, fileID{id, kind, num})
			}
		}
	}
	slices.SortFunc(files, compareFiles)
	return files
}

func compareFiles(a, b fileID) int {
	return cmp.Or(cmp.Compare(a.part, b.part), cmp.Compare(a.kind, b.kind), cmp.Compare(a.num, b.num))
}

// partFileName is the path of a partition file in dir.
func partFileName(dir string, kind fileKind, num uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%08d%s", num, fileExts[kind]))
}
