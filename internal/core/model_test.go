package core

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"unikv/internal/vfs"
)

// TestQuickModel drives the engine with random op sequences (put, delete,
// a batch of copied and borrowed puts and deletes, get, start- and
// end-bounded scans, snapshot open / scan / close, a forced Flush or
// CompactAll, a forced GC or scan merge of one partition) plus a backup and
// a reopen every 500 ops — each reopen redraws the hash geometry, the tier
// limits, the sorted view, the read cache and the hot ring from a seeded
// set, is checked by Gets, then a scan merge is forced while the sorted
// view is still unbuilt, with a flush landing between its build and its
// commit, and every other reopen comes after a Repair of the closed
// directory, half of those after a byte of a table or sealed value log was
// flipped, when
// every key that changed must be accounted for by the loss report and the
// model adopts what survived — and checks every observation against a model
// map. A batch draws its keys from the whole key space, so most straddle a
// partition boundary. Scan results are kept across later ops and re-verified
// byte for byte after every op, so memory a result still points into must
// not be recycled; after every op the manifest must describe exactly the
// current versions, and once a forced step has settled with no snapshot
// open, the disk must hold exactly the files they name.
// This is the main end-to-end property test: it routinely crosses flush,
// scan-merge, merge, GC, and split boundaries because of the tiny limits —
// run by the writer itself, and behind its back by a worker.
func TestQuickModel(t *testing.T) {
	for _, workers := range executors {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { quickModel(t, workers) })
	}
}

func quickModel(t *testing.T, workers int) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		fs := vfs.NewMem()
		opts := smallOpts(fs)
		opts.GCRatio = 0.25
		opts.PartitionSizeLimit = 16 << 10
		opts.BackgroundWorkers = workers
		db, err := Open("db", opts)
		if err != nil {
			return false
		}
		defer func() { db.Close() }()
		exact := workers == 0 // one goroutine publishes everything: exact at every publish
		watchGauges(t, db, exact)
		model := map[string]string{}
		keyOf := func() string { return fmt.Sprintf("key-%04d", rnd.Intn(400)) }
		// checkScan compares a scan result against model's pairs in
		// [start, end) (end "" is unbounded), at most n of them.
		checkScan := func(what string, kvs []KV, model map[string]string, start, end string, n int) bool {
			var wantKeys []string
			for k := range model {
				if k >= start && (end == "" || k < end) {
					wantKeys = append(wantKeys, k)
				}
			}
			sort.Strings(wantKeys)
			if len(wantKeys) > n {
				wantKeys = wantKeys[:n]
			}
			if len(kvs) != len(wantKeys) {
				t.Logf("%s(%s,%s,%d): got %d want %d", what, start, end, n, len(kvs), len(wantKeys))
				return false
			}
			for i, kv := range kvs {
				if string(kv.Key) != wantKeys[i] || string(kv.Value) != model[wantKeys[i]] {
					t.Logf("%s[%d]: %q=%q want %q=%q", what, i, kv.Key, kv.Value, wantKeys[i], model[wantKeys[i]])
					return false
				}
			}
			return true
		}
		randomScan := func() (start, end string, n int) {
			start, n = keyOf(), rnd.Intn(30)+1
			if rnd.Intn(2) == 0 {
				end = keyOf()
			}
			return start, end, n
		}
		// kept holds earlier scan results the test still owns, with copies.
		type keptScan struct{ got, want []KV }
		var kept []keptScan
		var snap *Snapshot
		var snapModel map[string]string
		defer func() {
			if snap != nil {
				snap.Close()
			}
		}()

		// checkStore compares a whole store — every key the ops pick from, and
		// a full scan — with model.
		// checkGets reads every key point-wise, which builds no sorted view;
		// checkStore scans the store too.
		checkGets := func(what string, db *DB, model map[string]string) bool {
			for i := 0; i < 400; i++ {
				k := fmt.Sprintf("key-%04d", i)
				got, err := db.Get([]byte(k))
				if want, ok := model[k]; ok && (err != nil || string(got) != want) || !ok && err != ErrNotFound {
					t.Logf("%s: get %s: %q %v want %q", what, k, got, err, want)
					return false
				}
			}
			return true
		}
		checkStore := func(what string, db *DB, model map[string]string) bool {
			if !checkGets(what, db, model) {
				return false
			}
			kvs, err := db.Scan(nil, nil, 0)
			if err != nil {
				t.Logf("%s: scan: %v", what, err)
				return false
			}
			return checkScan(what+" scan", kvs, model, "", "", len(model))
		}

		// adopt checks that the repair report accounts for every key the
		// store now answers differently from model — lost, or an older value
		// back — then makes model what the store holds.
		adopt := func(db *DB, report *RepairReport) bool {
			var differ [][]byte
			for i := 0; i < 400; i++ {
				k := fmt.Sprintf("key-%04d", i)
				got, err := db.Get([]byte(k))
				if err != nil && err != ErrNotFound {
					t.Logf("get %s after repair: %v", k, err)
					return false
				}
				if want, ok := model[k]; ok != (err == nil) || string(got) != want {
					differ = append(differ, []byte(k))
					delete(model, k)
					if err == nil {
						model[k] = string(got)
					}
				}
			}
			if out := lossUnaccounted(report, differ); out != nil {
				t.Logf("%d keys changed outside every dropped table, %d pointers dropped (first %q):\n%s",
					len(out), report.PointersDropped, out[0], report)
				return false
			}
			return true
		}

		// forceJob runs a structural job on a random partition as the pool
		// would, then checks the file set. With behind, it first puts a key
		// and runs the job on that key's partition, whose memtable is
		// flushed between the job's build and its commit: the commit keeps
		// a table the job did not merge, as when a flush lands beside a
		// pool's merge.
		forceJob := func(kind jobKind, job func(*partition, *version) error, behind bool) bool {
			var p *partition
			var flushErr error
			if !behind {
				parts := db.partitions()
				p = parts[rnd.Intn(len(parts))]
			} else {
				k, v := keyOf(), fmt.Sprintf("behind-%d", rnd.Int63())
				if err := db.Put([]byte(k), []byte(v)); err != nil {
					t.Logf("put: %v", err)
					return false
				}
				model[k] = v
				settle(db) // no pool job reads the hook while it is set
				p = db.partitionFor([]byte(k))
				db.testHookMergeBuild = func(q *partition) { flushErr = q.flushAll() }
			}
			p.maintMu.Lock()
			v := p.acquire()
			err := job(p, v)
			v.release()
			p.maintMu.Unlock()
			db.testHookMergeBuild = nil
			if err == nil {
				err = flushErr
			}
			if err != nil {
				t.Logf("%s: %v", kind, err)
				return false
			}
			db.afterCommit(p, kind)
			settle(db)
			if snap == nil {
				checkFileSet(t, db)
			}
			return true
		}

		for op := 0; op < 3000; op++ {
			switch {
			case op%500 == 249: // backup, then open it beside the store
				dir := fmt.Sprintf("backup-%d", op)
				if err := db.Backup(dir); err != nil {
					t.Logf("backup: %v", err)
					return false
				}
				bk, err := Open(dir, opts)
				if err != nil {
					t.Logf("open backup: %v", err)
					return false
				}
				ok := checkStore("backup", bk, model)
				if err := bk.VerifyIntegrity(); err != nil {
					t.Logf("backup: verify: %v", err)
					ok = false
				}
				checkManifestMatchesVersions(t, bk)
				if err := bk.Close(); err != nil || !ok {
					t.Logf("backup: close: %v", err)
					return false
				}
			case op%500 == 499: // reopen, every other time after a repair
				if snap != nil {
					snap.Close()
					snap = nil
				}
				if err := db.Close(); err != nil {
					t.Logf("close: %v", err)
					return false
				}
				// Recovery must take the store as it finds it under other
				// options: a checkpoint of another hash geometry, another
				// tier limit, and the view and accelerators on or off.
				opts.HashBuckets = []int{1 << 10, 1 << 12, 3000}[rnd.Intn(3)]
				opts.UnsortedLimit = []int64{4 << 10, 8 << 10, 16 << 10}[rnd.Intn(3)]
				opts.PartitionSizeLimit = []int64{16 << 10, 32 << 10}[rnd.Intn(2)]
				opts.exp.SortedViewOff = rnd.Intn(2) == 0
				opts.CacheBytes = []int64{0, 64 << 10, CacheOff}[rnd.Intn(3)]
				opts.HotRingEntries = []int{0, 64, HotRingOff}[rnd.Intn(3)]
				var damage *RepairReport // the report of a repair after a flipped byte
				if op%1000 == 999 {
					flipped := rnd.Intn(2) == 0 && flipStoredByte(fs, rnd)
					report, err := Repair("db", opts)
					if err != nil || !flipped && report.String() != "repair: no damage found\n" {
						t.Logf("repair (byte flipped: %v): %v\n%s", flipped, err, report)
						return false
					}
					if flipped {
						damage = report
					}
				}
				if db, err = Open("db", opts); err != nil {
					t.Logf("reopen: %v", err)
					return false
				}
				watchGauges(t, db, exact)
				if damage != nil && !adopt(db, damage) {
					return false
				}
				// The recovered index answers every Get; then, before the
				// first scan builds it, the view recovery left unbuilt goes
				// through a scan merge.
				if !checkGets("reopened", db, model) || !forceJob(jobScanMerge, (*partition).scanMerge, true) ||
					!checkStore("reopened, scan-merged", db, model) {
					return false
				}
				if damage != nil {
					settle(db)
					checkFileSet(t, db)
				}
			case rnd.Intn(50) == 0: // a forced flush or CompactAll, then the file set
				force, name := db.Flush, "flush"
				if rnd.Intn(2) == 0 {
					force, name = db.CompactAll, "compact"
				}
				if err := force(); err != nil {
					t.Logf("%s: %v", name, err)
					return false
				}
				settle(db)
				if snap == nil {
					checkFileSet(t, db) // a snapshot's versions keep more
				}
			case rnd.Intn(100) == 0: // a forced GC of a random partition, then the file set
				if !forceJob(jobGC, (*partition).gc, false) {
					return false
				}
			case rnd.Intn(50) == 0: // a forced scan merge of a random partition, then the file set
				if !forceJob(jobScanMerge, (*partition).scanMerge, rnd.Intn(2) == 0) {
					return false
				}
			default:
				switch rnd.Intn(11) {
				case 0, 1, 2, 3, 4: // put
					k, v := keyOf(), fmt.Sprintf("val-%d-%d", op, rnd.Int63())
					if err := db.Put([]byte(k), []byte(v)); err != nil {
						t.Logf("put: %v", err)
						return false
					}
					model[k] = v
				case 5: // delete
					k := keyOf()
					if err := db.Delete([]byte(k)); err != nil {
						t.Logf("delete: %v", err)
						return false
					}
					delete(model, k)
				case 6, 7: // get
					k := keyOf()
					got, err := db.Get([]byte(k))
					want, ok := model[k]
					if ok {
						if err != nil || string(got) != want {
							t.Logf("get %s: %q %v want %q", k, got, err, want)
							return false
						}
					} else if err != ErrNotFound {
						t.Logf("get missing %s: %v", k, err)
						return false
					}
				case 8: // scan, keeping some results for later re-verification
					start, end, n := randomScan()
					var endKey []byte
					if end != "" {
						endKey = []byte(end)
					}
					kvs, err := db.Scan([]byte(start), endKey, n)
					if err != nil {
						t.Logf("scan: %v", err)
						return false
					}
					if !checkScan("scan", kvs, model, start, end, n) {
						return false
					}
					if rnd.Intn(3) == 0 {
						if len(kept) == 8 {
							kept = kept[1:]
						}
						kept = append(kept, keptScan{got: kvs, want: cloneKVs(kvs)})
					}
				case 10: // a batch of 1-8 copied and borrowed puts and deletes
					type batchOp struct {
						k, v string
						del  bool
					}
					b, ops := NewBatch(), []batchOp{}
					var borrowed [][]byte
					borrow := func(s string) []byte {
						borrowed = append(borrowed, []byte(s))
						return borrowed[len(borrowed)-1]
					}
					for i := rnd.Intn(8); i >= 0; i-- {
						o := batchOp{k: keyOf(), v: fmt.Sprintf("batch-%d-%d-%d", op, i, rnd.Int63()), del: rnd.Intn(4) == 0}
						switch copied := rnd.Intn(2) == 0; {
						case o.del && copied:
							b.Delete([]byte(o.k))
						case o.del:
							b.DeleteBorrowed(borrow(o.k))
						case copied:
							b.Put([]byte(o.k), []byte(o.v))
						default:
							b.PutBorrowed(borrow(o.k), borrow(o.v))
						}
						ops = append(ops, o)
					}
					if err := db.ApplyBatch(b); err != nil {
						t.Logf("batch: %v", err)
						return false
					}
					for _, buf := range borrowed { // the store kept none of them
						for j := range buf {
							buf[j] = 0xee
						}
					}
					for _, o := range ops { // queue order
						if o.del {
							delete(model, o.k)
						} else {
							model[o.k] = o.v
						}
					}
				case 9: // snapshot open / scan / close
					switch {
					case snap == nil:
						if snap, err = db.NewSnapshot(); err != nil {
							t.Logf("snapshot: %v", err)
							return false
						}
						snapModel = maps.Clone(model)
					default:
						start, end, n := randomScan()
						var endKey []byte
						if end != "" {
							endKey = []byte(end)
						}
						kvs, err := snap.Scan([]byte(start), endKey, n)
						if err != nil || !checkScan("snapshot scan", kvs, snapModel, start, end, n) {
							t.Logf("snapshot scan: %v", err)
							return false
						}
						if rnd.Intn(2) == 0 {
							snap.Close()
							snap = nil
						}
					}
				}
			}
			checkManifestMatchesVersions(t, db)
			for i, k := range kept {
				if !equalKVs(k.got, k.want) {
					t.Logf("op %d: kept scan result %d changed", op, i)
					return false
				}
			}
		}
		return checkStore("final", db, model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// flipStoredByte flips one byte of a random table or sealed value log of
// the closed store in fs, reporting whether it found one.
func flipStoredByte(fs vfs.FS, rnd *rand.Rand) bool {
	var names []string
	for _, f := range diskFiles(fs, "db") {
		if f.kind == fileTable {
			names = append(names, tableName(partDir("db", f.part), f.num))
		}
	}
	logs, _ := fs.List(filepath.Join("db", "vlog"))
	for i := 0; i+1 < len(logs); i++ { // the newest log was the active one
		names = append(names, filepath.Join("db", "vlog", logs[i]))
	}
	if len(names) == 0 {
		return false
	}
	name := names[rnd.Intn(len(names))]
	data, err := fs.ReadFile(name)
	if err != nil || len(data) == 0 {
		return false
	}
	data[rnd.Intn(len(data))] ^= 0xff
	return fs.WriteFile(name, data) == nil
}

// TestAblationsStillCorrect runs the same workload under every ablation
// toggle: disabling an optimization must never change results.
func TestAblationsStillCorrect(t *testing.T) {
	variants := map[string]func(*Options){
		"no-hash-index":    func(o *Options) { o.exp.DisableHashIndex = true },
		"no-kv-separation": func(o *Options) { o.exp.DisableKVSeparation = true },
		"no-partitioning":  func(o *Options) { o.exp.DisablePartitioning = true },
		"no-scan-merge":    func(o *Options) { o.exp.DisableScanMerge = true },
		"no-prefetch":      func(o *Options) { o.exp.DisableScanPrefetch = true },
		"no-parallel":      func(o *Options) { o.exp.DisableScanParallel = true },
		"no-hash-ckpt":     func(o *Options) { o.exp.HashCheckpointEvery = -1 },
	}
	for name, tweak := range variants {
		name, tweak := name, tweak
		t.Run(name, func(t *testing.T) {
			fs := vfs.NewMem()
			opts := smallOpts(fs)
			tweak(&opts)
			db, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			model := map[string]string{}
			rnd := rand.New(rand.NewSource(7))
			for op := 0; op < 2500; op++ {
				k := fmt.Sprintf("key-%04d", rnd.Intn(300))
				if rnd.Intn(8) == 0 {
					db.Delete([]byte(k))
					delete(model, k)
				} else {
					v := fmt.Sprintf("val-%d", op)
					db.Put([]byte(k), []byte(v))
					model[k] = v
				}
			}
			for k, v := range model {
				got, err := db.Get([]byte(k))
				if err != nil || string(got) != v {
					t.Fatalf("get %s: %q %v want %q", k, got, err, v)
				}
			}
			kvs, err := db.Scan(nil, nil, 0)
			if err != nil {
				// nil start with nil end and limit 0 means limit=1<<30.
				t.Fatal(err)
			}
			if len(kvs) != len(model) {
				t.Fatalf("scan %d vs model %d", len(kvs), len(model))
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			for k, v := range model {
				got, err := db2.Get([]byte(k))
				if err != nil || string(got) != v {
					t.Fatalf("reopen get %s: %q %v want %q", k, got, err, v)
				}
			}
		})
	}
}

// TestBinaryKeysAndValues pushes random binary data through all tiers.
func TestBinaryKeysAndValues(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs)
	defer db.Close()

	rnd := rand.New(rand.NewSource(3))
	type pair struct{ k, v []byte }
	var pairs []pair
	seen := map[string]bool{}
	for i := 0; i < 400; i++ {
		k := make([]byte, rnd.Intn(40)+1)
		rnd.Read(k)
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		v := make([]byte, rnd.Intn(400))
		rnd.Read(v)
		pairs = append(pairs, pair{k, v})
		if err := db.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	db.CompactAll()
	for _, p := range pairs {
		got, err := db.Get(p.k)
		if err != nil || !bytes.Equal(got, p.v) {
			t.Fatalf("binary key %x: %v", p.k, err)
		}
	}
}
