package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"unikv/internal/vfs"
)

// forEachPolicy runs f once under leveling and once under tiering, each
// over a fresh in-memory FS.
func forEachPolicy(t *testing.T, f func(t *testing.T, fs vfs.FS, cfg Config)) {
	for _, p := range []struct {
		name string
		runs int
	}{{"leveled", 0}, {"tiered", 3}} {
		t.Run(p.name, func(t *testing.T) {
			fs := vfs.NewMem()
			f(t, fs, Config{
				Name:             "test",
				MemtableSize:     2 << 10,
				L0CompactTrigger: 4,
				RunsPerLevel:     p.runs,
				LevelSizeBase:    16 << 10,
				LevelMultiplier:  4,
				TargetTableSize:  8 << 10,
				BloomBitsPerKey:  10,
				FS:               fs,
			})
		})
	}
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
func val(i int) []byte {
	return []byte(fmt.Sprintf("value-%06d-%s", i, bytes.Repeat([]byte("w"), 40)))
}

func mustOpen(t *testing.T, cfg Config) *DB {
	t.Helper()
	db, err := Open("lsm", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func checkGets(t *testing.T, db *DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		got, err := db.Get(key(i))
		if err != nil || !bytes.Equal(got, val(i)) {
			t.Fatalf("key %d: %v", i, err)
		}
	}
}

func TestPutGet(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, fs vfs.FS, cfg Config) {
		db := mustOpen(t, cfg)
		defer db.Close()
		const n = 1500
		for i := 0; i < n; i++ {
			if err := db.Put(key(i), val(i)); err != nil {
				t.Fatal(err)
			}
		}
		s := db.Stats()
		if s.Flushes == 0 || s.Compactions == 0 {
			t.Fatalf("no tree activity: %+v", s)
		}
		deep := false
		for _, ls := range s.Levels[2:] {
			deep = deep || ls.Tables > 0
		}
		if !deep {
			t.Fatalf("data never reached L2+: %+v", s.Levels)
		}
		checkGets(t, db, n)
		if _, err := db.Get([]byte("absent")); err != ErrNotFound {
			t.Fatalf("%v", err)
		}
	})
}

func TestOverwriteDelete(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, fs vfs.FS, cfg Config) {
		db := mustOpen(t, cfg)
		defer db.Close()
		for round := 0; round < 4; round++ {
			for i := 0; i < 300; i++ {
				db.Put(key(i), []byte(fmt.Sprintf("round-%d-%d", round, i)))
			}
		}
		for i := 0; i < 300; i += 3 {
			db.Delete(key(i))
		}
		kvs, err := db.Scan(key(0), key(300), 0)
		if err != nil || len(kvs) != 200 {
			t.Fatalf("scan: %d live keys, %v", len(kvs), err)
		}
		for _, kv := range kvs {
			if !bytes.HasPrefix(kv.Value, []byte("round-3-")) {
				t.Fatalf("stale value %q for %q", kv.Value, kv.Key)
			}
		}
		db.Compact()
		for i := 0; i < 300; i++ {
			got, err := db.Get(key(i))
			if i%3 == 0 {
				if err != ErrNotFound {
					t.Fatalf("deleted key %d: %v", i, err)
				}
				continue
			}
			if err != nil || string(got) != fmt.Sprintf("round-3-%d", i) {
				t.Fatalf("key %d: %q %v", i, got, err)
			}
		}
	})
}

func TestScan(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, fs vfs.FS, cfg Config) {
		db := mustOpen(t, cfg)
		defer db.Close()
		for _, i := range rand.New(rand.NewSource(1)).Perm(800) {
			db.Put(key(i), val(i))
		}
		kvs, err := db.Scan(key(100), nil, 60)
		if err != nil || len(kvs) != 60 {
			t.Fatalf("%d %v", len(kvs), err)
		}
		for j, kv := range kvs {
			if !bytes.Equal(kv.Key, key(100+j)) || !bytes.Equal(kv.Value, val(100+j)) {
				t.Fatalf("scan[%d]=%q", j, kv.Key)
			}
		}
		if kvs, _ = db.Scan(key(0), key(10), 0); len(kvs) != 10 {
			t.Fatalf("range scan %d", len(kvs))
		}
	})
}

func TestReopen(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, fs vfs.FS, cfg Config) {
		db := mustOpen(t, cfg)
		for i := 0; i < 900; i++ {
			db.Put(key(i), val(i))
		}
		db.Close()
		db2 := mustOpen(t, cfg)
		defer db2.Close()
		checkGets(t, db2, 900)
	})
}

func TestWALRecovery(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, fs vfs.FS, cfg Config) {
		cfg.MemtableSize = 1 << 20 // no flushes
		cfg.SyncWrites = true
		db := mustOpen(t, cfg)
		for i := 0; i < 40; i++ {
			db.Put(key(i), val(i))
		}
		// Abandon without Close: WAL must carry the data.
		db2 := mustOpen(t, cfg)
		defer db2.Close()
		checkGets(t, db2, 40)
	})
}

// TestFailedVersionSave fails the VERSION save of a flush: the old WAL
// must survive it, so reopening the files without Close recovers every
// acknowledged write, and that reopen removes the table and WAL the
// failed flush left behind.
func TestFailedVersionSave(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, fs vfs.FS, cfg Config) {
		ffs := vfs.NewFail(fs)
		cfg.FS = ffs
		db := mustOpen(t, cfg)
		ffs.ArmPlan(vfs.FailPlan{Pattern: "VERSION", Fail: 1})
		acked := 0
		for db.Put(key(acked), val(acked)) == nil {
			acked++
		}
		cfg.FS = fs
		db2 := mustOpen(t, cfg)
		checkGets(t, db2, acked)
		db2.Close()
		live := map[string]bool{"VERSION": true, filepath.Base(db2.walName(db2.walNum)): true}
		for _, runs := range db2.levels {
			for _, r := range runs {
				for _, tb := range r {
					live[filepath.Base(db2.tableName(tb.fileNum))] = true
				}
			}
		}
		names, _ := fs.List("lsm")
		for _, name := range names {
			if !live[name] {
				t.Errorf("%s left behind", name)
			}
		}
	})
}

// TestWritesFailAfterFailedVersionSave: a failed VERSION save leaves the
// tree in memory past what VERSION names — the flush moved on to a WAL
// VERSION does not name — so every later write must fail with that error
// until the store is reopened, while reads go on. Reopening the files
// without Close must then find every write that was acknowledged.
func TestWritesFailAfterFailedVersionSave(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, fs vfs.FS, cfg Config) {
		ffs := vfs.NewFail(fs)
		cfg.FS = ffs
		db := mustOpen(t, cfg)
		ffs.ArmPlan(vfs.FailPlan{Pattern: "VERSION", Fail: 1})
		acked := 0
		var saveErr error
		for saveErr == nil {
			if saveErr = db.Put(key(acked), val(acked)); saveErr == nil {
				acked++
			}
		}
		var later []int // acknowledged after the failure
		for i := acked + 1; i <= acked+5; i++ {
			if err := db.Put(key(i), val(i)); err == nil {
				later = append(later, i)
			} else if !errors.Is(err, saveErr) {
				t.Errorf("put %d: %v, want the failed save's %v", i, err, saveErr)
			}
		}
		checkGets(t, db, acked)

		cfg.FS = fs
		db2 := mustOpen(t, cfg)
		checkGets(t, db2, acked)
		lost := 0
		for _, i := range later {
			if got, err := db2.Get(key(i)); err != nil || !bytes.Equal(got, val(i)) {
				lost++
			}
		}
		db2.Close()
		if len(later) > 0 {
			t.Errorf("%d writes acknowledged after the failed save, lost %d of them on reopen", len(later), lost)
		}
		if err := db.Compact(); !errors.Is(err, saveErr) {
			t.Errorf("Compact after the failed save: %v, want %v", err, saveErr)
		}
	})
}

// TestWritesAfterFailedWALCreateAreLogged: a flush whose new WAL cannot be
// created leaves no log open. Every write acknowledged after that must
// still be logged, so it survives a crash (an abandoned handle, reopened).
func TestWritesAfterFailedWALCreateAreLogged(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, fs vfs.FS, cfg Config) {
		ffs := vfs.NewFail(fs)
		cfg.FS = ffs
		db := mustOpen(t, cfg)
		ffs.ArmPlan(vfs.FailPlan{Pattern: "*.wal", Kinds: vfs.OpCreate, Fail: 1})
		acked := 0
		for ; acked < 10000; acked++ {
			if err := db.Put(key(acked), val(acked)); err != nil {
				break
			}
		}
		if acked == 10000 {
			t.Fatal("no flush created a WAL")
		}
		var later []int
		for i := acked + 1; i <= acked+5; i++ {
			if err := db.Put(key(i), val(i)); err == nil {
				later = append(later, i)
			}
		}
		cfg.FS = fs
		db2 := mustOpen(t, cfg)
		defer db2.Close()
		checkGets(t, db2, acked)
		for _, i := range later {
			if got, err := db2.Get(key(i)); err != nil || !bytes.Equal(got, val(i)) {
				t.Errorf("put %d, acknowledged after the failed WAL create, lost on reopen: %v", i, err)
			}
		}
	})
}

func TestPresets(t *testing.T) {
	for _, cfg := range []Config{ConfigLevelDB(1), ConfigRocksDB(1), ConfigHyperLevelDB(1), ConfigPebblesDB(1)} {
		c := cfg.sanitize()
		if c.MemtableSize <= 0 || c.L0CompactTrigger <= 0 || c.Name == "" {
			t.Fatalf("bad preset %+v", c)
		}
		if tiered := c.Name == "pebblesdb"; tiered != (c.RunsPerLevel > 0) {
			t.Fatalf("%s: RunsPerLevel %d", c.Name, c.RunsPerLevel)
		}
	}
	if ConfigHyperLevelDB(1).L0CompactTrigger <= ConfigLevelDB(1).L0CompactTrigger {
		t.Fatal("HyperLevelDB preset should tolerate more L0 tables")
	}
}

func TestAccessCountsSkew(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, fs vfs.FS, cfg Config) {
		db := mustOpen(t, cfg)
		defer db.Close()
		for i := 0; i < 1200; i++ {
			db.Put(key(i), val(i))
		}
		// Zipf-ish reads over a hot prefix.
		zipf := rand.NewZipf(rand.New(rand.NewSource(2)), 1.1, 1, 1199)
		for i := 0; i < 3000; i++ {
			db.Get(key(int(zipf.Uint64())))
		}
		var total int64
		for _, a := range db.TableAccesses() {
			total += a
		}
		if total == 0 {
			t.Fatal("no accesses recorded")
		}
	})
}

func TestQuickModel(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, _ vfs.FS, cfg Config) {
		f := func(seed int64) bool {
			rnd := rand.New(rand.NewSource(seed))
			cfg.FS = vfs.NewMem()
			db, err := Open("lsm", cfg)
			if err != nil {
				return false
			}
			defer db.Close()
			model := map[string]string{}
			for op := 0; op < 2000; op++ {
				k := fmt.Sprintf("key-%04d", rnd.Intn(250))
				if rnd.Intn(8) == 0 {
					db.Delete([]byte(k))
					delete(model, k)
				} else {
					v := fmt.Sprintf("v-%d", op)
					db.Put([]byte(k), []byte(v))
					model[k] = v
				}
			}
			for k, v := range model {
				if got, err := db.Get([]byte(k)); err != nil || string(got) != v {
					return false
				}
			}
			kvs, err := db.Scan([]byte(""), nil, 0)
			if err != nil || len(kvs) != len(model) {
				return false
			}
			var keys []string
			for k := range model {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for i, kv := range kvs {
				if string(kv.Key) != keys[i] || string(kv.Value) != model[keys[i]] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCorruptVersionRejected(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, fs vfs.FS, cfg Config) {
		db := mustOpen(t, cfg)
		for i := 0; i < 200; i++ {
			db.Put(key(i), val(i))
		}
		db.Close()
		data, _ := fs.ReadFile("lsm/VERSION")
		data[10] ^= 0xff
		fs.WriteFile("lsm/VERSION", data)
		if _, err := Open("lsm", cfg); err == nil {
			t.Fatal("corrupt VERSION accepted")
		}
	})
}

func TestOrphanSweep(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, fs vfs.FS, cfg Config) {
		db := mustOpen(t, cfg)
		for i := 0; i < 500; i++ {
			db.Put(key(i), val(i))
		}
		db.Close()
		orphans := []string{"lsm/99999998.wal", "lsm/99999999.sst"}
		for _, name := range orphans {
			fs.WriteFile(name, []byte("junk"))
		}
		db2 := mustOpen(t, cfg)
		defer db2.Close()
		for _, name := range orphans {
			if fs.Exists(name) {
				t.Fatalf("orphan %s not swept", name)
			}
		}
		checkGets(t, db2, 500)
	})
}

// TestStatsShape checks the level shape each policy promises: under
// leveling at most one run below L0, under tiering fewer than K runs in
// every level that compacts and some deeper level holding several.
func TestStatsShape(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, fs vfs.FS, cfg Config) {
		db := mustOpen(t, cfg)
		defer db.Close()
		for i := 0; i < 3000; i++ {
			db.Put(key(i%1000), val(i))
		}
		s := db.Stats()
		if s.Name != "test" || len(s.Levels) != NumLevels {
			t.Fatalf("%+v", s)
		}
		var size int64
		multi := false
		for _, ls := range s.Levels {
			size += ls.Bytes
			if ls.Level > 0 && cfg.RunsPerLevel == 0 && ls.Runs > 1 {
				t.Fatalf("leveled L%d holds %d runs", ls.Level, ls.Runs)
			}
			if ls.Level > 0 && ls.Level < NumLevels-1 && cfg.RunsPerLevel > 0 && ls.Runs >= cfg.RunsPerLevel {
				t.Fatalf("tiered L%d holds %d runs", ls.Level, ls.Runs)
			}
			multi = multi || (ls.Level > 0 && ls.Runs > 1)
		}
		if size == 0 {
			t.Fatal("no bytes accounted")
		}
		if multi != (cfg.RunsPerLevel > 0) {
			t.Fatalf("several runs in a deeper level: %t, tiered: %t: %+v", multi, cfg.RunsPerLevel > 0, s.Levels)
		}
	})
}

func TestCompactEmpty(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, fs vfs.FS, cfg Config) {
		db := mustOpen(t, cfg)
		defer db.Close()
		if err := db.Compact(); err != nil {
			t.Fatalf("compact of an empty tree: %v", err)
		}
		s := db.Stats()
		if s.Flushes != 0 || s.Compactions != 0 {
			t.Fatalf("empty tree flushed %d, compacted %d times", s.Flushes, s.Compactions)
		}
	})
}

func TestClosedOps(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, fs vfs.FS, cfg Config) {
		db := mustOpen(t, cfg)
		db.Close()
		if err := db.Put(key(1), val(1)); err != ErrClosed {
			t.Fatalf("%v", err)
		}
		if _, err := db.Get(key(1)); err != ErrClosed {
			t.Fatalf("%v", err)
		}
		if _, err := db.Scan(nil, nil, 1); err != ErrClosed {
			t.Fatalf("%v", err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("double close: %v", err)
		}
	})
}
