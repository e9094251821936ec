package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func valueKey(n uint64, off uint64) Key { return Key{Pool: PoolValue, ID: n, Off: off} }

// blockData and valueData are the only payloads the tests cache: a hit can
// be checked against the identity it was asked for.
func blockData(id uint64, i int) []byte { return []byte(fmt.Sprintf("table %d block %d", id, i)) }
func valueData(k Key) []byte            { return []byte(fmt.Sprintf("log %d offset %d", k.ID, k.Off)) }

func TestGetAddBasic(t *testing.T) {
	c := New(1<<20, 4)
	tab := c.NewTable(1, 4)
	if _, ok := tab.Get(0); ok {
		t.Fatal("hit on empty cache")
	}
	tab.Add(0, []byte("blockdata"))
	got, ok := tab.Get(0)
	if !ok || string(got) != "blockdata" {
		t.Fatalf("got %q ok=%v", got, ok)
	}
	// Pools are disjoint namespaces.
	if _, ok := c.Get(valueKey(1, 0)); ok {
		t.Fatal("value pool hit for block entry")
	}
	c.Add(valueKey(1, 0), []byte("value"))
	if got, ok := c.Get(valueKey(1, 0)); !ok || string(got) != "value" {
		t.Fatalf("got %q ok=%v", got, ok)
	}
	s := c.Snapshot()
	if s.BlockHits != 1 || s.BlockMisses != 1 || s.ValueHits != 1 || s.ValueMisses != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.Entries != 2 || s.Bytes != int64(len("blockdata")+len("value")+2*entryOverhead) {
		t.Fatalf("occupancy %+v", s)
	}
}

// TestBlockCountsOutliveTheirTable: each table counts its own lookups;
// Snapshot sums the open tables and what the closed ones left behind.
func TestBlockCountsOutliveTheirTable(t *testing.T) {
	c := New(1<<20, 4)
	a, b := c.NewTable(1, 2), c.NewTable(2, 2)
	a.Get(0) // miss
	a.Add(0, blockData(1, 0))
	a.Get(0) // hit
	b.Get(1) // miss
	a.Close()
	a.Close() // twice: counted once
	if s := c.Snapshot(); s.BlockHits != 1 || s.BlockMisses != 2 {
		t.Fatalf("one table closed: %+v", s)
	}
	b.Close()
	if s := c.Snapshot(); s.BlockHits != 1 || s.BlockMisses != 2 || len(c.tables) != 0 {
		t.Fatalf("both closed: %+v, %d tables still registered", s, len(c.tables))
	}
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache
	c.Add(valueKey(1, 1), []byte("x"))
	c.AddCold(valueKey(1, 1), []byte("x"))
	if _, ok := c.Get(valueKey(1, 1)); ok {
		t.Fatal("nil cache returned a hit")
	}
	tab := c.NewTable(1, 8)
	tab.Add(3, []byte("x"))
	if _, ok := tab.Get(3); ok {
		t.Fatal("nil cache's table returned a hit")
	}
	tab.Close()
	c.EvictLog(1)
	if s := c.Snapshot(); s != (Stats{}) {
		t.Fatalf("nil snapshot %+v", s)
	}
	if New(0, 4) != nil || New(-1, 4) != nil {
		t.Fatal("New with non-positive capacity must return nil")
	}
}

// TestSecondChance: one shard, room for four entries. The hand gives an
// entry that was hit since it last passed one more round, and only one.
func TestSecondChance(t *testing.T) {
	const room = 4
	c := New(room*(128+entryOverhead), 1)
	tab := c.NewTable(1, 16)
	payload := make([]byte, 128)
	resident := func(i int) bool { return tab.slots[i].Load() != nil }
	for i := 0; i < room; i++ {
		tab.Add(i, payload)
	}
	tab.Get(0)
	tab.Add(4, payload) // the hand clears 0's bit and takes 1
	if !resident(0) || resident(1) {
		t.Fatalf("after one add: 0 resident=%v (want true), 1 resident=%v (want false)", resident(0), resident(1))
	}
	tab.Add(5, payload) // takes 2
	tab.Add(6, payload) // takes 3
	if !resident(0) || resident(2) || resident(3) {
		t.Fatal("the sweep did not take the untouched entries in clock order")
	}
	tab.Add(7, payload) // back at 0, not hit since: gone
	if resident(0) {
		t.Fatal("an entry kept its second chance for a second sweep")
	}
	for i := 4; i <= 7; i++ {
		if !resident(i) {
			t.Fatalf("entry %d, added behind the hand, did not get a full round", i)
		}
	}
	s := c.Snapshot()
	if s.Evictions != 4 || s.Entries != room || s.Bytes != room*(128+entryOverhead) {
		t.Fatalf("stats %+v", s)
	}
	// The two pools share the clock: a value add evicts a block.
	c.Add(valueKey(9, 0), payload)
	if resident(4) {
		t.Fatal("a value add did not evict the block under the hand")
	}
}

func TestOversizedEntryRejected(t *testing.T) {
	c := New(1024, 1)
	tab := c.NewTable(1, 1)
	tab.Add(0, make([]byte, 2048))
	c.Add(valueKey(1, 0), make([]byte, 2048))
	if _, ok := tab.Get(0); ok {
		t.Fatal("oversized block admitted")
	}
	if s := c.Snapshot(); s.Entries != 0 {
		t.Fatalf("entries = %d", s.Entries)
	}
}

func TestDuplicateAddKeepsResident(t *testing.T) {
	c := New(1<<20, 1)
	tab := c.NewTable(1, 1)
	tab.Add(0, []byte("first"))
	tab.Add(0, []byte("second"))
	c.Add(valueKey(1, 0), []byte("first"))
	c.AddCold(valueKey(1, 0), []byte("second"))
	b, _ := tab.Get(0)
	v, _ := c.Get(valueKey(1, 0))
	if string(b) != "first" || string(v) != "first" {
		t.Fatalf("resident copy replaced: block %q value %q", b, v)
	}
	if s := c.Snapshot(); s.Entries != 2 {
		t.Fatalf("entries = %d", s.Entries)
	}
}

// TestAddColdFullShard: a cold add into a full shard changes nothing and
// costs nothing — no eviction, no copy; into free space it stores a copy.
func TestAddColdFullShard(t *testing.T) {
	c := New(4*(128+entryOverhead), 1)
	val := make([]byte, 128)
	c.AddCold(valueKey(1, 0), val)
	val[0] = 'x'
	if got, ok := c.Get(valueKey(1, 0)); !ok || got[0] != 0 {
		t.Fatalf("AddCold kept the caller's buffer (ok=%v)", ok)
	}
	for off := uint64(1); off < 4; off++ {
		c.Add(valueKey(1, off), val)
	}
	before := c.Snapshot()
	k := valueKey(2, 0)
	if n := testing.AllocsPerRun(100, func() { c.AddCold(k, val) }); n != 0 {
		t.Fatalf("a rejected AddCold allocates %v times", n)
	}
	if after := c.Snapshot(); after != before {
		t.Fatalf("a rejected AddCold changed the cache: %+v -> %+v", before, after)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("AddCold admitted into a full shard")
	}
	tab := c.NewTable(1, 1)
	tab.Add(0, val)
	if n := testing.AllocsPerRun(100, func() { tab.Get(0) }); n != 0 {
		t.Fatalf("a block hit allocates %v times", n)
	}
}

// model drives one cache and the reference beside it: what may be resident
// (added since its table opened or its log was last evicted) and nothing
// more. Every hit must be of the identity asked for and allowed by the
// reference; a miss is always allowed (anything can have been evicted).
type model struct {
	c      *Cache
	nextID uint64
	tables []*Table        // some closed
	open   map[*Table]bool // not yet closed
	added  map[Key]bool    // values added since their log's last eviction
}

const (
	modelBlocks = 8
	modelLogs   = 4
)

func (m *model) openTable() *Table {
	m.nextID++
	tab := m.c.NewTable(m.nextID, modelBlocks)
	m.tables = append(m.tables, tab)
	m.open[tab] = true
	return tab
}

func (m *model) step(t *testing.T, r *rand.Rand) {
	tab := m.tables[r.Intn(len(m.tables))]
	i := r.Intn(modelBlocks)
	k := valueKey(uint64(r.Intn(modelLogs)), uint64(r.Intn(16)))
	switch op := r.Intn(100); {
	case op < 30:
		if b, ok := tab.Get(i); ok && (!m.open[tab] || !bytes.Equal(b, blockData(tab.id, i))) {
			t.Fatalf("table %d (open=%v) block %d served %q", tab.id, m.open[tab], i, b)
		}
	case op < 50:
		tab.Add(i, blockData(tab.id, i))
	case op < 70:
		if v, ok := m.c.Get(k); ok && (!m.added[k] || !bytes.Equal(v, valueData(k))) {
			t.Fatalf("value %+v (added=%v) served %q", k, m.added[k], v)
		}
	case op < 80:
		m.c.Add(k, valueData(k))
		m.added[k] = true
	case op < 90:
		m.c.AddCold(k, valueData(k))
		m.added[k] = true
	case op < 94:
		tab.Close()
		delete(m.open, tab)
		m.openTable()
	default:
		m.c.EvictLog(uint32(k.ID))
		for a := range m.added {
			if a.ID == k.ID {
				delete(m.added, a)
			}
		}
	}
}

// TestModel: random lookups, adds, table closes and log evictions against
// the reference, with the byte budget checked after every step, and an
// empty cache once every table is closed and every log evicted.
func TestModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		// From a cache of two entries a shard to one that never evicts.
		capacity := int64(4*2*(32+entryOverhead)) << (seed % 6)
		m := &model{c: New(capacity, 4), open: map[*Table]bool{}, added: map[Key]bool{}}
		for i := 0; i < 3; i++ {
			m.openTable()
		}
		for i := 0; i < 5000; i++ {
			m.step(t, r)
			if s := m.c.Snapshot(); s.Bytes > capacity || s.Bytes < 0 || s.Entries < 0 {
				t.Fatalf("seed %d step %d: %+v over capacity %d", seed, i, s, capacity)
			}
		}
		for _, tab := range m.tables {
			tab.Close()
			tab.Add(0, blockData(tab.id, 0)) // a closed table stores nothing
		}
		for n := uint32(0); n < modelLogs; n++ {
			m.c.EvictLog(n)
		}
		if s := m.c.Snapshot(); s.Bytes != 0 || s.Entries != 0 {
			t.Fatalf("seed %d: everything released, cache holds %+v", seed, s)
		}
	}
}

// TestStorm runs the model's mix from 8 goroutines against a cache of a
// few entries, tables closing under their readers. Checked: every hit is
// of the identity asked for, and nothing is left once all is released.
func TestStorm(t *testing.T) {
	const capacity = 4 * 3 * (32 + entryOverhead)
	c := New(capacity, 4)
	var nextID atomic.Uint64
	var tables [3]atomic.Pointer[Table]
	var handles sync.Map // every handle ever opened
	open := func(slot int) *Table {
		tab := c.NewTable(nextID.Add(1), modelBlocks)
		handles.Store(tab, true)
		return tables[slot].Swap(tab)
	}
	for i := range tables {
		open(i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for n := 0; n < 4000; n++ {
				slot, i := r.Intn(len(tables)), r.Intn(modelBlocks)
				tab := tables[slot].Load()
				k := valueKey(uint64(r.Intn(modelLogs)), uint64(r.Intn(16)))
				switch op := r.Intn(100); {
				case op < 30:
					if b, ok := tab.Get(i); ok && !bytes.Equal(b, blockData(tab.id, i)) {
						t.Errorf("table %d block %d served %q", tab.id, i, b)
						return
					}
				case op < 50:
					tab.Add(i, blockData(tab.id, i))
				case op < 70:
					if v, ok := c.Get(k); ok && !bytes.Equal(v, valueData(k)) {
						t.Errorf("value %+v served %q", k, v)
						return
					}
				case op < 80:
					c.Add(k, valueData(k))
				case op < 90:
					c.AddCold(k, valueData(k))
				case op < 95:
					open(slot).Close()
				default:
					c.EvictLog(uint32(k.ID))
				}
			}
		}(g)
	}
	wg.Wait()
	if s := c.Snapshot(); s.Bytes > capacity || s.BlockHits+s.BlockMisses == 0 || s.ValueHits+s.ValueMisses == 0 {
		t.Fatalf("after the storm: %+v", s)
	}
	handles.Range(func(tab, _ any) bool {
		tab.(*Table).Close()
		return true
	})
	for n := uint32(0); n < modelLogs; n++ {
		c.EvictLog(n)
	}
	if s := c.Snapshot(); s.Bytes != 0 || s.Entries != 0 {
		t.Fatalf("everything released, cache holds %+v", s)
	}
}

// The benchmarks: each path a point read takes through the cache, alone
// and from every CPU at once. benchCache is full — a cold add is turned
// away, a warm one evicts — with every block of its table and values
// 0..benchResident-1 of log 1 resident.
const benchResident = 1024

func benchCache() (*Cache, *Table) {
	c := New(3*benchResident*(1024+entryOverhead), 0)
	tab := c.NewTable(1, benchResident)
	for i := 0; i < benchResident; i++ {
		tab.Add(i, make([]byte, 1024))
		c.Add(valueKey(1, uint64(i)), make([]byte, 1024))
	}
	for i := 0; i < 8*benchResident; i++ { // top every shard up
		c.AddCold(valueKey(3, uint64(i)), make([]byte, 1024))
	}
	return c, tab
}

// benchBoth runs op(i) serially and then in parallel.
func benchBoth(b *testing.B, op func(i int)) {
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			op(i)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		var next atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			i := int(next.Add(1)) << 32 // each goroutine its own run of keys
			for ; pb.Next(); i++ {
				op(i)
			}
		})
	})
}

func BenchmarkBlockHit(b *testing.B) {
	_, tab := benchCache()
	benchBoth(b, func(i int) { tab.Get(i % benchResident) })
}

func BenchmarkValueHit(b *testing.B) {
	c, _ := benchCache()
	benchBoth(b, func(i int) { c.Get(valueKey(1, uint64(i%benchResident))) })
}

func BenchmarkValueMiss(b *testing.B) {
	c, _ := benchCache()
	benchBoth(b, func(i int) { c.Get(valueKey(2, uint64(i))) })
}

func BenchmarkColdReject(b *testing.B) {
	c, _ := benchCache()
	val := make([]byte, 1024)
	benchBoth(b, func(i int) { c.AddCold(valueKey(2, uint64(i)), val) })
}

func BenchmarkEvictingAdd(b *testing.B) {
	c, _ := benchCache()
	val := make([]byte, 1024)
	benchBoth(b, func(i int) { c.Add(valueKey(2, uint64(i)), val) })
}
