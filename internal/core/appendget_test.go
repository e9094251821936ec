package core

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"unikv/internal/vfs"
	"unikv/internal/vlog"
)

// Tests for AppendGet, the one point read behind Get, Snapshot.Get and a
// server GET: the value is appended to the caller's buffer through every
// tier, and the engine keeps no reference to that buffer.

// appendGetDB opens a store whose ring has 16 one-set shards (128 ways),
// which reading the even keys of any tier below fills: a later first read
// of an odd key then misses into a full set and installs nothing (an
// install is the ring's own copy, not the path under test).
func appendGetDB(t *testing.T, tweak func(*Options)) *DB {
	t.Helper()
	opts := smallOpts(vfs.NewMem())
	opts.CacheBytes = 256 << 10
	opts.PartitionSizeLimit = 1 << 30
	opts.HotRingEntries = 128
	tweak(&opts)
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestAppendGetAllocatesNothing: into a buffer with room, a get served by
// any tier allocates nothing — a ring hit, the memtable, an unsorted table
// (the value inline in a resident block), and a sorted table whose value is
// read from its log into a value cache too full to admit it. Each case
// reads keys it has not read before (but the ring hit), so the ring has no
// reason to call one warm, and checks the counters that tell which path
// served it.
func TestAppendGetAllocatesNothing(t *testing.T) {
	const keys = 1000
	small := func(i int) []byte { return val(i) }
	large := func(i int) []byte { return bytes.Repeat(val(i), 20) } // ~1 KiB
	cases := []struct {
		name  string
		tweak func(*Options)
		value func(int) []byte
		load  func(*DB) error // after the puts
		// same lists the counters the measured reads must not move; moved
		// the one that must move once per read.
		same  func(before, after StatsSnapshot) bool
		moved func(StatsSnapshot) int64
		keys  func(i int) int // the i-th measured key
	}{
		{
			name:  "ring",
			tweak: func(*Options) {},
			value: small,
			load:  func(*DB) error { return nil },
			same:  func(b, a StatsSnapshot) bool { return a.HotRingMisses == b.HotRingMisses },
			moved: func(m StatsSnapshot) int64 { return m.HotRingHits },
			keys:  func(int) int { return 0 }, // the key a warm read installed
		},
		{
			name:  "memtable",
			tweak: func(o *Options) { o.MemtableSize = 1 << 20 },
			value: small,
			load:  func(*DB) error { return nil },
			same: func(b, a StatsSnapshot) bool {
				return a.HotRingHits == b.HotRingHits && a.Flushes == 0 && a.CacheBlockHits+a.CacheBlockMisses == b.CacheBlockHits+b.CacheBlockMisses
			},
			moved: func(m StatsSnapshot) int64 { return m.HotRingMisses },
			keys:  func(i int) int { return 2*i + 1 },
		},
		{
			name:  "unsorted table",
			tweak: func(o *Options) { o.UnsortedLimit, o.ScanMergeLimit = 1<<20, 1<<10 },
			value: small,
			load:  (*DB).Flush,
			same: func(b, a StatsSnapshot) bool {
				return a.HotRingHits == b.HotRingHits && a.CacheBlockMisses == b.CacheBlockMisses &&
					a.Merges == 0 && a.SortedTables == 0 && a.UnsortedTables > 0
			},
			moved: func(m StatsSnapshot) int64 { return m.CacheBlockHits },
			keys:  func(i int) int { return 2*i + 1 },
		},
		{
			name:  "sorted table and value log",
			tweak: func(*Options) {},
			value: large,
			load:  (*DB).CompactAll,
			same: func(b, a StatsSnapshot) bool {
				return a.HotRingHits == b.HotRingHits && a.CacheBlockMisses == b.CacheBlockMisses &&
					a.CacheValueHits == b.CacheValueHits && a.CacheEntries == b.CacheEntries &&
					a.CacheEvictions == b.CacheEvictions
			},
			moved: func(m StatsSnapshot) int64 { return m.CacheValueMisses },
			keys:  func(i int) int { return 2*i + 1 },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := appendGetDB(t, c.tweak)
			for i := range keys {
				if err := db.Put(key(i), c.value(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.load(db); err != nil {
				t.Fatal(err)
			}
			// Reading the even keys fills the ring's ways, makes every
			// table block resident (a block add evicts) and fills what room
			// is left with values (a cold add does not).
			for i := 0; i < keys; i += 2 {
				if got, err := db.Get(key(i)); err != nil || !bytes.Equal(got, c.value(i)) {
					t.Fatalf("warm key %d: %v", i, err)
				}
			}
			ks, want := make([][]byte, keys/2), make([][]byte, keys/2)
			for i := range ks {
				ks[i], want[i] = key(c.keys(i)), c.value(c.keys(i))
			}
			buf := make([]byte, 0, 4096)
			buf = append(buf, "hdr"...)
			before := db.Metrics()
			next := 0
			allocs := testing.AllocsPerRun(keys/2-1, func() {
				out, err := db.AppendGet(buf, ks[next])
				if err != nil || !bytes.Equal(out[3:], want[next]) || &out[0] != &buf[:1][0] || string(out[:3]) != "hdr" {
					t.Fatalf("key %d: %d bytes, %v", c.keys(next), len(out), err)
				}
				next++
			})
			after := db.Metrics()
			if !c.same(before, after) || after.HotRingPromotions != before.HotRingPromotions || c.moved(after)-c.moved(before) != keys/2 {
				t.Fatalf("not the path under test:\nbefore %+v\nafter  %+v", before, after)
			}
			if allocs != 0 && !raceEnabled {
				t.Fatalf("AppendGet into a buffer with room allocates %v times, want 0", allocs)
			}
		})
	}
}

// TestAppendGetKeepsPrefix: AppendGet appends after dst's bytes and leaves
// them alone; a miss and a value-log frame that fails its checksum return
// dst at its old length. Bytes it appended are the caller's: overwriting
// them changes no later read, whether that read is served by the ring's
// copy or by the value cache's.
func TestAppendGetKeepsPrefix(t *testing.T) {
	value := bytes.Repeat([]byte("0123456789abcdef"), 64)
	prefix := []byte("frame-header")
	buf := func() []byte { return append(make([]byte, 0, 4096), prefix...) }
	intact := func(t *testing.T, out []byte, n int) {
		t.Helper()
		if len(out) != len(prefix)+n || !bytes.Equal(out[:len(prefix)], prefix) {
			t.Fatalf("AppendGet returned %d bytes %q..., want the prefix and %d more", len(out), out[:min(len(out), 20)], n)
		}
	}
	seed := func(t *testing.T, fs vfs.FS, ring int) {
		t.Helper()
		opts := smallOpts(fs)
		opts.HotRingEntries = ring
		db, err := Open("db", opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Put(key(0), value); err != nil {
			t.Fatal(err)
		}
		if err := db.CompactAll(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	reopen := func(t *testing.T, fs vfs.FS, ring int) *DB {
		t.Helper()
		opts := smallOpts(fs)
		opts.HotRingEntries = ring
		db, err := Open("db", opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}

	t.Run("not found", func(t *testing.T) {
		fs := vfs.NewMem()
		seed(t, fs, 0)
		db := reopen(t, fs, 0)
		out, err := db.AppendGet(buf(), key(1))
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("absent key: %v", err)
		}
		intact(t, out, 0)
	})

	t.Run("corrupt log", func(t *testing.T) {
		fs := vfs.NewMem()
		seed(t, fs, 0)
		logs, err := fs.List(filepath.Join("db", "vlog"))
		if err != nil {
			t.Fatal(err)
		}
		flipped := 0
		for _, name := range logs {
			if _, ok := vlog.ParseLogName(name); !ok {
				continue
			}
			path := filepath.Join("db", "vlog", name)
			if data, err := fs.ReadFile(path); err != nil {
				t.Fatal(err)
			} else if len(data) >= vlog.HeaderLen+len(value) {
				flipByte(t, fs, path, vlog.HeaderLen+len(value)/2)
				flipped++
			}
		}
		if flipped != 1 {
			t.Fatalf("flipped a byte in %d logs, want the one holding the value", flipped)
		}
		db := reopen(t, fs, 0)
		out, err := db.AppendGet(buf(), key(0))
		if err == nil || Classify(err) != ClassCorruption {
			t.Fatalf("read of a flipped frame: %v, want a corruption", err)
		}
		intact(t, out, 0)
	})

	for _, c := range []struct {
		name string
		ring int
		hit  func(before, after StatsSnapshot) bool
	}{
		{"ring copy", 0, func(b, a StatsSnapshot) bool { return a.HotRingHits == b.HotRingHits+1 }},
		{"value cache copy", HotRingOff, func(b, a StatsSnapshot) bool { return a.CacheValueHits == b.CacheValueHits+1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs := vfs.NewMem()
			seed(t, fs, c.ring)
			db := reopen(t, fs, c.ring)
			out, err := db.AppendGet(buf(), key(0))
			if err != nil || !bytes.Equal(out[len(prefix):], value) {
				t.Fatalf("first read: %v", err)
			}
			intact(t, out, len(value))
			for i := len(prefix); i < len(out); i++ {
				out[i] = 0xaa
			}
			before := db.Metrics()
			got, err := db.Get(key(0))
			if err != nil || !bytes.Equal(got, value) {
				t.Fatalf("read after overwriting the appended bytes: %q..., %v", got[:min(len(got), 20)], err)
			}
			if after := db.Metrics(); !c.hit(before, after) {
				t.Fatalf("not the path under test:\nbefore %+v\nafter  %+v", before, after)
			}
		})
	}
}
