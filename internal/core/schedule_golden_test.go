package core

import (
	"fmt"
	"math/rand"
	"testing"

	"unikv/internal/vfs"
)

// scheduleGolden is what one seeded single-writer, zero-worker run leaves
// behind: how often each maintenance step fired, what the file system was
// asked to do, and the shape every partition ended in. With one writer and
// no worker nothing in it depends on timing.
type scheduleGolden struct {
	Flushes, Merges, ScanMerges, GCs, Splits                    int64
	BytesWritten, BytesRead, WriteOps, ReadOps, Syncs, FilesNew int64
	// Parts lists, per partition in router order, its unsorted tables,
	// sorted tables and value logs: "u/s/l".
	Parts string
}

// runScheduleGolden loads keys in a seeded random order, overwrites them
// with a zipfian skew and reads some back in between (serial scans: the
// fetch pool would make the read counts depend on timing).
func runScheduleGolden(t *testing.T) scheduleGolden {
	t.Helper()
	fs := vfs.NewMem()
	opts := smallOpts(fs)
	opts.exp.DisableScanParallel = true
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const keys, updates = 1500, 9000
	rng := rand.New(rand.NewSource(18))
	for _, i := range rng.Perm(keys) {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	zipf := rand.NewZipf(rng, 1.2, 8, keys-1)
	for n := 0; n < updates; n++ {
		i := int(zipf.Uint64())
		switch {
		case n%97 == 0:
			err = db.Delete(key(i))
		case n%13 == 0:
			_, err = db.Get(key(i))
			if err == ErrNotFound {
				err = nil
			}
		case n%401 == 0:
			_, err = db.Scan(key(i), nil, 20)
		default:
			err = db.Put(key(i), val(n))
		}
		if err != nil {
			t.Fatalf("op %d: %v", n, err)
		}
	}

	m, c := db.Metrics(), fs.Counters().Snapshot()
	g := scheduleGolden{
		Flushes: m.Flushes, Merges: m.Merges, ScanMerges: m.ScanMerges, GCs: m.GCs, Splits: m.Splits,
		BytesWritten: c.BytesWritten, BytesRead: c.BytesRead, WriteOps: c.WriteOps, ReadOps: c.ReadOps,
		Syncs: c.Syncs, FilesNew: c.FilesCreated,
	}
	for _, p := range db.partitions() {
		v := p.cur.Load()
		g.Parts += fmt.Sprintf(" %d/%d/%d", v.uns.NumTables(), v.srt.NumTables(), len(v.logs))
	}
	checkManifestMatchesVersions(t, db)
	return g
}

// TestScheduleGolden holds the zero-worker maintenance schedule to the
// numbers recorded at the commit before the inline maintenance twins were
// deleted (14f17e5): the same steps fire at the same puts and issue the same
// file-system calls. A change that moves any of them changed *when*
// maintenance runs, which is a change to every dataset the ledger builds.
// BytesRead and ReadOps also count the run's gets and scans, so a change to
// what serves a get moves them alone: the set-associative hot ring, which
// admits a miss into an empty way at once, serves more of the gets, and the
// run reads 1 098 bytes in 18 reads fewer (3 048 433 → 3 047 335 bytes,
// 10 645 → 10 627 reads).
func TestScheduleGolden(t *testing.T) {
	want := scheduleGolden{
		Flushes: 438, Merges: 57, ScanMerges: 138, GCs: 20, Splits: 5,
		BytesWritten: 10744204, BytesRead: 3047335, WriteOps: 11788, ReadOps: 10627,
		Syncs: 2443, FilesNew: 1553,
		Parts: " 1/3/4 0/2/2 1/2/6 1/2/14 2/2/14 1/3/12",
	}
	got := runScheduleGolden(t)
	if got.Flushes < 40 || got.Merges < 5 || got.ScanMerges < 3 || got.GCs < 2 || got.Splits < 1 {
		t.Fatalf("workload no longer reaches every maintenance kind: %+v", got)
	}
	if got != want {
		t.Fatalf("maintenance schedule moved:\n got %+v\nwant %+v", got, want)
	}
}
