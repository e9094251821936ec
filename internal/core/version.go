package core

import (
	"slices"
	"sync/atomic"

	"unikv/internal/codec"
	"unikv/internal/manifest"
	"unikv/internal/memtable"
	"unikv/internal/sorted"
	"unikv/internal/sstable"
	"unikv/internal/unsorted"
)

// version is one immutable state of a partition: everything a read, the
// write throttle and the maintenance triggers consult. A partition names
// its current version through one atomic pointer (partition.cur); whoever
// changes the partition's structure builds a successor and installs it with
// publish while holding partition.mu. Nothing about a published version
// changes afterwards except its reference count and the contents of mem,
// which only grows (and, along a flush, the hash index inside uns — see
// unsorted.Store).
//
// Lifetime: a version holds its files. publish takes one reference on every
// table reader and one retention on every value log the version names, and
// the version gives them back when its own count reaches zero — the
// partition holds one count for the current version, each reader one from
// acquire to release. So a file leaves the disk with the last version that
// names it: install marks the tables a commit replaced obsolete, and the
// reader's last Close removes the file.
//
// A commit is a version diff: the job builds the successor, and the manifest
// batch that makes it durable is derived from the pair (edits), never listed
// by hand, so a commit cannot publish a state it did not log.
type version struct {
	p *partition
	// upper is the partition's exclusive upper bound (nil = +inf), which
	// moves down when the partition splits; the inclusive lower bound,
	// p.lower, never changes.
	upper []byte

	// mem is the live memtable, shared with the writer: it is append-only,
	// and a read pinned at a sequence filters what was added later.
	mem *memtable.Memtable
	imm []*memtable.Memtable // frozen, flush-pending; oldest first
	uns *unsorted.Store
	srt *sorted.Store
	// logs is the set of value logs the tables point into, ascending.
	logs []uint32

	// Gauges, computed by publish. unsBytes, unsTables and nImm follow from
	// the fields above; logBytes is the partition's share of its value logs
	// (a log's size divided by the number of partitions whose current
	// version names it) and size adds the tables, memtables and logBytes
	// up. Both were exact when the version was published: mem and the
	// active value log grow underneath them until the next publish, which
	// comes at the latest when mem is full, and a job of another partition
	// that changes a shared log's owner count republishes (refreshShares).
	nImm, unsTables          int
	unsBytes, logBytes, size int64
	// sharesAt is logRefs.moved as of logBytes: while they are equal no
	// other partition's commit has changed this one's share of a log.
	sharesAt uint64

	refs atomic.Int32
}

// covers reports whether key belongs to the partition as of v.
func (v *version) covers(key []byte) bool {
	if lower := v.p.lower; len(lower) > 0 && codec.Compare(key, lower) < 0 {
		return false
	}
	return v.upper == nil || codec.Compare(key, v.upper) < 0
}

// successor returns an unpublished copy of v for the caller to change.
func (v *version) successor() *version {
	return &version{p: v.p, upper: v.upper,
		mem: v.mem, imm: v.imm, uns: v.uns, srt: v.srt, logs: v.logs}
}

// hasLog reports whether v names value log n.
func (v *version) hasLog(n uint32) bool {
	_, ok := slices.BinarySearch(v.logs, n)
	return ok
}

// acquire pins the partition's current version for a read: O(1), no lock,
// no allocation. The caller must release it. A version whose count already
// reached zero is never revived; its successor is published by then.
func (p *partition) acquire() *version {
	for {
		v := p.cur.Load()
		if n := v.refs.Load(); n > 0 && v.refs.CompareAndSwap(n, n+1) {
			return v
		}
	}
}

// release drops one reference; the last one gives the files back.
func (v *version) release() {
	if v.refs.Add(-1) > 0 {
		return
	}
	v.closeTables()
	v.p.db.releaseLogs(v.logs)
}

// closeTables drops one reference on every table reader v names.
func (v *version) closeTables() {
	for _, t := range v.uns.Tables() {
		t.Reader.Close()
	}
	for _, t := range v.srt.Tables() {
		t.Reader.Close()
	}
}

// publish makes next the partition's current version: it takes next's hold
// on its files, fills in the gauges, stores the pointer and drops the
// partition's reference on the version it replaces. This is the only place
// partition.cur is stored. Requires p.mu held, except while the partition
// is still private to its creator (open, split).
func (p *partition) publish(next *version) {
	for _, t := range next.uns.Tables() {
		t.Reader.Ref()
	}
	for _, t := range next.srt.Tables() {
		t.Reader.Ref()
	}
	old := p.cur.Load()
	var oldLogs []uint32
	if old != nil {
		oldLogs = old.logs
	}
	next.logBytes, next.sharesAt = p.db.holdLogs(oldLogs, next.logs)
	next.nImm = len(next.imm)
	next.unsTables = next.uns.NumTables()
	next.unsBytes = next.uns.SizeBytes()
	next.size = next.unsBytes + next.srt.SizeBytes() + next.mem.Size() + next.logBytes
	for _, m := range next.imm {
		next.size += m.Size()
	}
	next.refs.Store(1)
	p.cur.Store(next)
	if h := p.db.testHookPublish; h != nil {
		h(next)
	}
	if old != nil {
		old.release()
	}
}

// edits returns the manifest edits that turn v's files into next's, by
// three rules: a flush appends exactly one UnsortedStore table
// (AddUnsorted); any other new UnsortedStore replaces the list and voids the
// hash checkpoint, which indexes the old one (SetUnsorted, SetHashCkpt 0); a
// new SortedStore run is logged with the value logs its pointers may reach
// (SetSorted, SetLogs). The memtables and the bounds are not manifest state.
// v is next's predecessor, or an empty version for a partition's first
// edits (a split's child, a backup).
func (v *version) edits(next *version) []manifest.Edit {
	id := next.p.id
	out := make([]manifest.Edit, 0, 4) // room for a flush's commit: one derived edit, three extra
	switch {
	case next.uns == v.uns:
	case v.replacesUnsorted(next):
		metas := make([]manifest.TableMeta, 0, next.uns.NumTables())
		for _, t := range next.uns.Tables() {
			metas = append(metas, t.Meta)
		}
		out = append(out, manifest.SetUnsorted(id, metas), manifest.SetHashCkpt(id, 0))
	default:
		out = append(out, manifest.AddUnsorted(id, next.uns.Tables()[v.uns.NumTables()].Meta))
	}
	if next.srt != v.srt {
		metas := make([]manifest.TableMeta, 0, next.srt.NumTables())
		for _, t := range next.srt.Tables() {
			metas = append(metas, t.Meta)
		}
		out = append(out, manifest.SetSorted(id, metas), manifest.SetLogs(id, next.logs))
	}
	return out
}

// replacesUnsorted reports whether next's UnsortedStore replaces v's rather
// than keeping it or appending one table (a flush) — the change that voids
// the hash checkpoint, in the manifest (edits) and on disk (install) alike.
func (v *version) replacesUnsorted(next *version) bool {
	if next.uns == v.uns {
		return false
	}
	old, uns := v.uns.Tables(), next.uns.Tables()
	return len(uns) != len(old)+1 || !slices.Equal(old, uns[:len(old)])
}

// commit makes next the partition's current version durably: one manifest
// batch holds the edits derived from the current version plus extra — the
// WAL pointer, the counters, a split's new partition — and install follows.
// A failed batch changes nothing. Requires p.mu held.
func (p *partition) commit(next *version, extra ...manifest.Edit) error {
	if err := p.db.man.Apply(append(p.cur.Load().edits(next), extra...)...); err != nil {
		return err
	}
	p.install(next)
	return nil
}

// install publishes next as a committed change: every table the current
// version names and next does not is marked obsolete, so the reader's last
// Close — the replaced version's, or that of an older one a reader or
// snapshot pins — removes the file (best effort; the orphan sweep covers
// failures), and an UnsortedStore that was replaced rather than extended
// takes its hash checkpoint along. A partition's first version (a split's
// child) replaces nothing. Requires p.mu held, or the partition still
// private to its creator.
func (p *partition) install(next *version) {
	cur := p.cur.Load()
	if cur == nil {
		p.publish(next)
		return
	}
	retire := func(num uint64, r *sstable.Reader) {
		fs, name := p.db.fs, tableName(p.dir, num)
		r.SetRetire(func() { fs.Remove(name) })
	}
	for _, t := range cur.uns.Tables() {
		if !slices.Contains(next.uns.Tables(), t) {
			retire(t.Meta.FileNum, t.Reader)
		}
	}
	for _, t := range cur.srt.Tables() {
		if !slices.Contains(next.srt.Tables(), t) {
			retire(t.Meta.FileNum, t.Reader)
		}
	}
	p.publish(next)
	if !cur.replacesUnsorted(next) {
		return
	}
	if p.hashCkpt != 0 {
		p.db.fs.Remove(ckptName(p.dir, p.hashCkpt))
	}
	p.hashCkpt = 0
	p.flushesSinceCkpt = 0
}

// tableRef names one table of a version, for the walks over all of them.
type tableRef struct {
	tier string
	num  uint64
	r    *sstable.Reader
}

// tablesOf lists v's tables, unsorted then sorted.
func tablesOf(v *version) []tableRef {
	var tables []tableRef
	for _, t := range v.uns.Tables() {
		tables = append(tables, tableRef{tier: "unsorted", num: t.Meta.FileNum, r: t.Reader})
	}
	for _, t := range v.srt.Tables() {
		tables = append(tables, tableRef{tier: "sorted", num: t.Meta.FileNum, r: t.Reader})
	}
	return tables
}

// holdLogs retains every log in next for a version about to be published,
// moves the partition's ownership from the logs of the version it replaces
// to next, and returns the value-log bytes attributable to the partition —
// each log's size divided by its number of owning partitions (a log shared
// after a split counts half to each child until their lazy value splits
// disentangle it) — with the count of share moves they were taken at.
func (db *DB) holdLogs(old, next []uint32) (size int64, sharesAt uint64) {
	db.logRefs.Lock()
	defer db.logRefs.Unlock()
	owners := db.logRefs.owners
	for _, n := range old {
		if _, kept := slices.BinarySearch(next, n); kept {
			continue
		}
		if owners[n]--; owners[n] <= 0 {
			delete(owners, n)
		} else {
			db.logRefs.moved++ // the remaining owners' shares grew
		}
	}
	for _, n := range next {
		db.logRefs.refs[n]++
		if _, had := slices.BinarySearch(old, n); had {
			continue
		}
		if owners[n]++; owners[n] > 1 {
			db.logRefs.moved++ // the other owners' shares shrank
		}
	}
	for _, n := range next {
		size += db.vl.SizeOf(n) / int64(owners[n])
	}
	return size, db.logRefs.moved
}

// refreshShares gives p a version with exact gauges again if a partition
// has joined or left a shared value log since p's current one was
// published — another partition's GC makes p the sole owner of the logs
// their common parent left them, say, and p's logBytes and size double
// without p having changed. Reports whether it published.
func (p *partition) refreshShares() bool {
	p.db.logRefs.Lock()
	moved := p.db.logRefs.moved
	p.db.logRefs.Unlock()
	if p.cur.Load().sharesAt == moved {
		return false
	}
	p.mu.Lock()
	p.publish(p.cur.Load().successor())
	p.mu.Unlock()
	return true
}

// mergeLogs returns logs plus the members of add, ascending. It never
// changes logs, which a published version owns.
func mergeLogs(logs []uint32, add map[uint32]bool) []uint32 {
	out := slices.Clone(logs)
	for n := range add {
		if _, ok := slices.BinarySearch(logs, n); !ok {
			out = append(out, n)
		}
	}
	slices.Sort(out)
	return out
}
