package core

import (
	"fmt"
	"reflect"
	"testing"

	"unikv/internal/manifest"
	"unikv/internal/sorted"
	"unikv/internal/unsorted"
	"unikv/internal/vfs"
)

// metaOf is the manifest entry a partition's version and hash checkpoint
// describe. The WAL pointer stays 0: the manifest records the oldest WAL
// holding unflushed data, the version every WAL of its memtables.
func metaOf(v *version, hashCkpt uint64) manifest.PartitionMeta {
	m := manifest.PartitionMeta{ID: v.p.id, Lower: v.p.lower, Logs: v.logs, HashCkpt: hashCkpt}
	for _, t := range v.uns.Tables() {
		m.Unsorted = append(m.Unsorted, t.Meta)
	}
	for _, t := range v.srt.Tables() {
		m.Sorted = append(m.Sorted, t.Meta)
	}
	return m
}

// checkManifestMatchesVersions holds the invariant every commit keeps: the
// manifest names exactly the partitions the router does, and each one's
// entry — unsorted and sorted tables in order, value logs, lower bound,
// hash checkpoint — is what its current version says. It
// takes the router's lock and then each partition's, as a commit does, so
// it may run beside background jobs.
func checkManifestMatchesVersions(t testing.TB, db *DB) {
	t.Helper()
	db.router.RLock()
	defer db.router.RUnlock()
	if got, want := len(db.man.State().Partitions), len(db.partitions()); got != want {
		t.Fatalf("the manifest names %d partitions, the router %d", got, want)
	}
	for _, p := range db.partitions() {
		p.mu.Lock()
		meta, ok := db.man.State().Partitions[p.id]
		v := p.cur.Load()
		want := metaOf(v, v.ckpt)
		p.mu.Unlock()
		if !ok {
			t.Fatalf("partition %d is not in the manifest", p.id)
		}
		meta.WALNum = 0
		if got, want := fmt.Sprintf("%+v", *meta), fmt.Sprintf("%+v", want); got != want {
			t.Fatalf("partition %d:\nmanifest %s\nversion  %s", p.id, got, want)
		}
	}
}

// TestCommitEdits derives the manifest batch of every commit shape from a
// (current, next) pair of versions: the edits must be exactly the ones the
// commit steps used to list by hand — TestScheduleGolden pins their bytes —
// and applied to the current entry they must yield next's.
func TestCommitEdits(t *testing.T) {
	db := &DB{opts: smallOpts(vfs.NewMem()).sanitize()}
	p := &partition{db: db, id: 3, lower: []byte("m")}
	child := &partition{db: db, id: 4, lower: []byte("t")}
	tm := func(n uint64) manifest.TableMeta {
		return manifest.TableMeta{FileNum: n, Size: int64(100 * n), Count: int(n), Smallest: []byte("m"), Largest: []byte("s")}
	}
	// The stores never touch a reader: no hash index, no view.
	uns := func(nums ...uint64) *unsorted.Store {
		s := unsorted.New(16, true, true)
		for _, n := range nums {
			s, _ = s.WithTable(&sorted.Table{Meta: tm(n)}, nil, nil)
		}
		return s
	}
	srt := func(nums ...uint64) *sorted.Store {
		var tables []*sorted.Table
		for _, n := range nums {
			tables = append(tables, &sorted.Table{Meta: tm(n)})
		}
		return sorted.New(tables)
	}
	metas := func(nums ...uint64) []manifest.TableMeta {
		out := []manifest.TableMeta{}
		for _, n := range nums {
			out = append(out, tm(n))
		}
		return out
	}
	cur := p.emptyVersion([]byte("x"))
	cur.uns, cur.srt, cur.logs = uns(5, 7), srt(2, 3), []uint32{1, 2}
	next := func(change func(*version)) *version {
		v := cur.successor()
		change(v)
		return v
	}
	flushed, _ := cur.uns.WithTable(&sorted.Table{Meta: tm(9)}, nil, nil)
	empty := child.emptyVersion(nil)
	right := empty.successor()
	right.srt, right.logs = srt(12), []uint32{1, 2, 6}
	oneTable := cur.successor()
	oneTable.uns = uns(5)

	cases := []struct {
		name string
		cur  *version // an empty version for a partition's first edits
		next *version
		// ckpt is the hash checkpoint the current entry names, ckptAfter the
		// one it names once the edits are applied.
		ckpt, ckptAfter uint64
		want            []manifest.Edit
	}{
		{"flush", cur, next(func(v *version) { v.uns = flushed }), 8, 8,
			[]manifest.Edit{manifest.AddUnsorted(3, tm(9))}},
		{"merge", cur, next(func(v *version) { v.uns, v.srt, v.logs = uns(9), srt(10, 11), []uint32{1, 2, 5} }), 8, 0,
			[]manifest.Edit{
				manifest.SetUnsorted(3, metas(9)), manifest.SetHashCkpt(3, 0),
				manifest.SetSorted(3, metas(10, 11)), manifest.SetLogs(3, []uint32{1, 2, 5}),
			}},
		{"scan merge", cur, next(func(v *version) { v.uns = uns(10, 9) }), 8, 0,
			[]manifest.Edit{manifest.SetUnsorted(3, metas(10, 9)), manifest.SetHashCkpt(3, 0)}},
		{"gc", cur, next(func(v *version) { v.srt, v.logs = srt(10), []uint32{2, 6} }), 8, 8,
			[]manifest.Edit{manifest.SetSorted(3, metas(10)), manifest.SetLogs(3, []uint32{2, 6})}},
		{"split parent", cur, next(func(v *version) { v.upper, v.uns, v.srt, v.logs = []byte("t"), uns(), srt(11), []uint32{1, 2, 5} }), 8, 0,
			[]manifest.Edit{
				manifest.SetUnsorted(3, metas()), manifest.SetHashCkpt(3, 0),
				manifest.SetSorted(3, metas(11)), manifest.SetLogs(3, []uint32{1, 2, 5}),
			}},
		{"split child", empty, right, 0, 0,
			[]manifest.Edit{manifest.SetSorted(4, metas(12)), manifest.SetLogs(4, []uint32{1, 2, 6})}},
		{"backup", p.emptyVersion(nil), cur, 0, 0,
			[]manifest.Edit{
				manifest.SetUnsorted(3, metas(5, 7)), manifest.SetHashCkpt(3, 0),
				manifest.SetSorted(3, metas(2, 3)), manifest.SetLogs(3, []uint32{1, 2}),
			}},
		{"backup, one unsorted table", p.emptyVersion(nil), oneTable, 0, 0,
			[]manifest.Edit{
				manifest.AddUnsorted(3, tm(5)),
				manifest.SetSorted(3, metas(2, 3)), manifest.SetLogs(3, []uint32{1, 2}),
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := c.cur.edits(c.next)
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("edits\n got %+v\nwant %+v", got, c.want)
			}
			// Apply them to the current entry through a real manifest.
			fs := vfs.NewMem()
			before, id := manifest.NewState(), c.next.p.id
			m := metaOf(c.cur, c.ckpt)
			before.Partitions[id] = &m
			if err := manifest.Rewrite(fs, "m", before); err != nil {
				t.Fatal(err)
			}
			man, err := manifest.Open(fs, "m")
			if err != nil {
				t.Fatal(err)
			}
			defer man.Close()
			if err := man.Apply(got...); err != nil {
				t.Fatal(err)
			}
			after, want := *man.State().Partitions[id], metaOf(c.next, c.ckptAfter)
			if fmt.Sprintf("%+v", after) != fmt.Sprintf("%+v", want) {
				t.Fatalf("applied to the current entry\n got %+v\nwant %+v", after, want)
			}
		})
	}
}
