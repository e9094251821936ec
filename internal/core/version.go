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
// Lifetime: a version names its files in the live-file registry (files.go)
// from publish until its count reaches zero — the partition holds one count
// for the current version, each reader one from acquire to release.
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
	// wals[i] is the WAL imm[i] is logged in, the last one mem's (0: none),
	// ascending. ckpt is the hash checkpoint of uns (0: none).
	wals []uint64
	ckpt uint64

	// Gauges, computed by publish. unsBytes, unsTables and nImm follow from
	// the fields above; logBytes is the partition's share of its value logs
	// (see DB.hold) and size adds the tables, memtables and logBytes up. Both
	// were exact when the version was published: mem and the active value
	// log grow underneath them until the next publish, which comes at the
	// latest when mem is full, or when afterCommit finds the share stale.
	nImm, unsTables          int
	unsBytes, logBytes, size int64

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
	return &version{p: v.p, upper: v.upper, mem: v.mem, imm: v.imm,
		uns: v.uns, srt: v.srt, logs: v.logs, wals: v.wals, ckpt: v.ckpt}
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
	if v.refs.Add(-1) == 0 {
		v.p.db.drop(v, nil)
	}
}

// publish makes next the partition's current version: it names next's
// files, fills in the gauges, stores the pointer and drops the partition's
// reference on the version it replaces. This is the only place
// partition.cur is stored. Requires p.mu held, except while the partition
// is still private to its creator (open, split).
func (p *partition) publish(next *version) {
	old := p.cur.Load()
	next.logBytes = p.db.hold(next)
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

// install publishes next as a committed change; an UnsortedStore replaced
// rather than extended drops its hash checkpoint, which indexes the old one.
// Requires p.mu held, or the partition still private to its creator.
func (p *partition) install(next *version) {
	if cur := p.cur.Load(); cur != nil && cur.replacesUnsorted(next) {
		next.ckpt = 0
		p.flushesSinceCkpt = 0
	}
	p.publish(next)
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

// mergeLogs returns logs plus add, ascending and without repeats. It never
// changes logs, which a published version owns.
func mergeLogs(logs []uint32, add ...uint32) []uint32 {
	out := append(slices.Clone(logs), add...)
	slices.Sort(out)
	return slices.Compact(out)
}
