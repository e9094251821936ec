package hotring

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// promote drives key through the miss→candidate→install cycle until it is
// resident (or the attempt budget runs out).
func promote(t *testing.T, r *Ring, key, value []byte) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if _, ok := r.Get(key); ok {
			return
		}
		tok := r.BeginMiss(key)
		if tok.Promote {
			r.Install(tok, key, value)
		}
	}
	t.Fatalf("key %q never promoted", key)
}

func TestGetMissThenPromote(t *testing.T) {
	r := New(Config{Entries: 64, Shards: 2, SampleEvery: 1, PromoteAfter: 2})
	key, val := []byte("k1"), []byte("v1")
	if _, ok := r.Get(key); ok {
		t.Fatal("hit on empty ring")
	}
	tok := r.BeginMiss(key)
	if tok.Promote {
		t.Fatal("promoted on first sampled miss with PromoteAfter=2")
	}
	tok = r.BeginMiss(key)
	if !tok.Promote || !tok.Warm {
		t.Fatalf("second sampled miss should promote and be warm: %+v", tok)
	}
	if !r.Install(tok, key, val) {
		t.Fatal("install failed")
	}
	got, ok := r.Get(key)
	if !ok || string(got) != "v1" {
		t.Fatalf("got %q %v", got, ok)
	}
	// The returned slice must be a private copy.
	got[0] = 'X'
	got2, _ := r.Get(key)
	if string(got2) != "v1" {
		t.Fatal("Get returned an aliased buffer")
	}
	s := r.Snapshot()
	if s.Hits < 2 || s.Promotions != 1 || s.Resident != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestInvalidateDropsEntryAndAbortsInflightPromotion(t *testing.T) {
	r := New(Config{Entries: 64, Shards: 1, SampleEvery: 1, PromoteAfter: 1})
	key := []byte("k")
	promote(t, r, key, []byte("v1"))
	r.Invalidate(key)
	if _, ok := r.Get(key); ok {
		t.Fatal("stale hit after invalidate")
	}
	// A token taken before an invalidation must not install afterwards.
	tok := r.BeginMiss(key)
	if !tok.Promote {
		t.Fatalf("expected promotion token, got %+v", tok)
	}
	r.Invalidate(key) // concurrent write lands between read and install
	if r.Install(tok, key, []byte("stale")) {
		t.Fatal("install succeeded despite invalidation after token")
	}
	if _, ok := r.Get(key); ok {
		t.Fatal("stale value resident")
	}
}

// TestHollowRefillAtDefaultSampling is the hollow lifecycle at the default
// SampleEvery and PromoteAfter: a write leaves the key's slot hollow (a
// miss), and the key's very next miss promotes without sampling, so one
// slow-path read puts the fresh value back.
func TestHollowRefillAtDefaultSampling(t *testing.T) {
	r := New(Config{Entries: 64, Shards: 1})
	key := []byte("k")
	promote(t, r, key, []byte("v1"))
	r.Invalidate(key)
	if v, ok := r.Get(key); ok {
		t.Fatalf("hollow entry served %q", v)
	}
	tok := r.BeginMiss(key)
	if !tok.Promote || !tok.Warm {
		t.Fatalf("first miss after a write should refill: %+v", tok)
	}
	if !r.Install(tok, key, []byte("v2")) {
		t.Fatal("refill did not install")
	}
	if v, ok := r.Get(key); !ok || string(v) != "v2" {
		t.Fatalf("after refill got %q %v, want v2", v, ok)
	}
}

// TestHollowRefillAbortsOnWrite: a write between the refilling miss and its
// Install aborts the install, and the slot stays hollow for the next read.
func TestHollowRefillAbortsOnWrite(t *testing.T) {
	r := New(Config{Entries: 64, Shards: 1})
	key := []byte("k")
	promote(t, r, key, []byte("v1"))
	r.Invalidate(key)
	tok := r.BeginMiss(key)
	r.Invalidate(key)
	if r.Install(tok, key, []byte("v2")) {
		t.Fatal("refill installed a value read before a later write")
	}
	if _, ok := r.Get(key); ok {
		t.Fatal("hit after an aborted refill")
	}
	tok = r.BeginMiss(key)
	if !tok.Promote || !r.Install(tok, key, []byte("v3")) {
		t.Fatalf("slot lost its hollow entry after an aborted refill: %+v", tok)
	}
	if v, _ := r.Get(key); string(v) != "v3" {
		t.Fatalf("got %q, want v3", v)
	}
}

// TestInvalidateRangeEmptiesHollow: a split empties hollow slots too, so the
// key's next miss is sampled like any other.
func TestInvalidateRangeEmptiesHollow(t *testing.T) {
	r := New(Config{Entries: 64, Shards: 1})
	key := []byte("m1")
	promote(t, r, key, []byte("v1"))
	r.Invalidate(key)
	r.InvalidateRange([]byte("m"), []byte("n"))
	if tok := r.BeginMiss(key); tok.Promote {
		t.Fatalf("miss after InvalidateRange promoted without sampling: %+v", tok)
	}
}

// TestHollowLosesSlotWhenCold: a hollow entry defends its slot in the
// frequency duel like a resident one, and a challenger that keeps coming
// halves it out once its key stops being read.
func TestHollowLosesSlotWhenCold(t *testing.T) {
	r := New(Config{Entries: 1, Shards: 1, SampleEvery: 1, PromoteAfter: 1})
	a, b := []byte("aa"), []byte("bb")
	promote(t, r, a, []byte("va"))
	for i := 0; i < 100; i++ {
		r.Get(a) // a is hot: its frequency climbs past 100
	}
	r.Invalidate(a)
	lost := 0
	for i := 0; i < 1000; i++ {
		if _, ok := r.Get(b); ok {
			break
		}
		if tok := r.BeginMiss(b); tok.Promote && !r.Install(tok, b, []byte("vb")) {
			lost++
		}
	}
	if _, ok := r.Get(b); !ok {
		t.Fatal("challenger never displaced a cold hollow entry")
	}
	if lost == 0 {
		t.Fatal("challenger took the hollow slot without a duel")
	}
}

// TestHollowNotResident: the residency gauges count values, and a hollow
// entry holds none.
func TestHollowNotResident(t *testing.T) {
	r := New(Config{Entries: 64, Shards: 1})
	key, val := []byte("k"), []byte("value")
	promote(t, r, key, val)
	want := Stats{Resident: 1, ResidentBytes: int64(len(key) + len(val))}
	gauges := func() Stats {
		s := r.Snapshot()
		return Stats{Resident: s.Resident, ResidentBytes: s.ResidentBytes}
	}
	if g := gauges(); g != want {
		t.Fatalf("resident gauges %+v, want %+v", g, want)
	}
	r.Invalidate(key)
	r.Invalidate(key) // a second write to a hollow key changes nothing
	if g := gauges(); g != (Stats{}) {
		t.Fatalf("hollow entry counted: %+v", g)
	}
	r.Install(r.BeginMiss(key), key, val)
	if g := gauges(); g != want {
		t.Fatalf("after refill %+v, want %+v", g, want)
	}
	r.Invalidate(key)
	r.InvalidateRange(nil, nil)
	if g := gauges(); g != (Stats{}) {
		t.Fatalf("after emptying %+v", g)
	}
}

// TestShardCountersOffSlotLine pins the shard layout: the counters a probe
// writes sit on cache lines of their own, apart from the slot tables every
// probe reads, and shards stay whole lines apart.
func TestShardCountersOffSlotLine(t *testing.T) {
	var s shard
	if off := unsafe.Offsetof(s.hits); off != cacheLine {
		t.Fatalf("hits at offset %d, want %d", off, cacheLine)
	}
	if off := unsafe.Offsetof(s.missTick); off != 2*cacheLine {
		t.Fatalf("missTick at offset %d, want %d", off, 2*cacheLine)
	}
	if off := unsafe.Offsetof(s.writerMu); off != 3*cacheLine {
		t.Fatalf("writerMu at offset %d, want %d", off, 3*cacheLine)
	}
	if size := unsafe.Sizeof(s); size%cacheLine != 0 {
		t.Fatalf("shard is %d bytes, not a whole number of lines", size)
	}
}

func TestMaxValueNotAdmitted(t *testing.T) {
	r := New(Config{Entries: 64, Shards: 1, MaxValue: 8, SampleEvery: 1, PromoteAfter: 1})
	key := []byte("big")
	tok := r.BeginMiss(key)
	tok = r.BeginMiss(key)
	if r.Install(tok, key, make([]byte, 9)) {
		t.Fatal("oversized value admitted")
	}
	if r.Install(Token{}, key, []byte("x")) {
		t.Fatal("zero token installed")
	}
}

func TestSlotDuelAgesResident(t *testing.T) {
	r := New(Config{Entries: 1, Shards: 1, SampleEvery: 1, PromoteAfter: 1})
	// Two keys share the single slot. The first wins it; the challenger
	// must out-count it, which aging guarantees eventually.
	a, b := []byte("aa"), []byte("bb")
	promote(t, r, a, []byte("va"))
	for i := 0; i < 1000; i++ {
		if _, ok := r.Get(b); ok {
			return
		}
		tok := r.BeginMiss(b)
		if tok.Promote {
			r.Install(tok, b, []byte("vb"))
		}
	}
	t.Fatal("challenger never displaced a cold resident")
}

func TestInvalidateRange(t *testing.T) {
	r := New(Config{Entries: 256, Shards: 4, SampleEvery: 1, PromoteAfter: 1})
	keys := [][]byte{[]byte("a1"), []byte("m1"), []byte("z1")}
	for _, k := range keys {
		promote(t, r, k, append([]byte("v-"), k...))
	}
	r.InvalidateRange([]byte("m"), []byte("n"))
	if _, ok := r.Get([]byte("m1")); ok {
		t.Fatal("ranged key survived InvalidateRange")
	}
	for _, k := range [][]byte{[]byte("a1"), []byte("z1")} {
		if _, ok := r.Get(k); !ok {
			t.Fatalf("key %q outside range was dropped", k)
		}
	}
	r.InvalidateRange(nil, nil) // whole keyspace
	if s := r.Snapshot(); s.Resident != 0 || s.ResidentBytes != 0 {
		t.Fatalf("resident after full-range invalidation: %+v", s)
	}
}

func TestNilRingIsDisabled(t *testing.T) {
	var r *Ring
	if _, ok := r.Get([]byte("k")); ok {
		t.Fatal("nil ring hit")
	}
	tok := r.BeginMiss([]byte("k"))
	if tok.Promote || tok.Warm {
		t.Fatal("nil ring promoted")
	}
	if r.Install(tok, []byte("k"), []byte("v")) {
		t.Fatal("nil ring installed")
	}
	r.Invalidate([]byte("k"))
	r.InvalidateRange(nil, nil)
	if s := r.Snapshot(); s != (Stats{}) {
		t.Fatalf("nil ring stats %+v", s)
	}
}

// TestRaceNoStaleHit is the protocol stress: every key's authoritative
// value lives in a mutex-guarded map (standing in for the engine's tiered
// store). Writers update the map then Invalidate; readers consult the ring
// first and fall back to the map, threading the token exactly like
// DB.Get. After every writer has finished, any hit must return the final
// value — a stale hit means the version fence is broken. Run with -race.
func TestRaceNoStaleHit(t *testing.T) {
	r := New(Config{Entries: 256, Shards: 4, SampleEvery: 1, PromoteAfter: 1})

	const nKeys = 32
	var authMu sync.RWMutex
	auth := make(map[string][]byte, nKeys)
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%02d", i)) }
	for i := 0; i < nKeys; i++ {
		auth[string(key(i))] = []byte(fmt.Sprintf("val%02d-gen0", i))
	}

	read := func(k []byte) []byte {
		if v, ok := r.Get(k); ok {
			return v
		}
		tok := r.BeginMiss(k)
		authMu.RLock()
		v := append([]byte(nil), auth[string(k)]...)
		authMu.RUnlock()
		if tok.Promote {
			r.Install(tok, k, v)
		}
		return v
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			for gen := 1; !stop.Load(); gen++ {
				k := key(rnd.Intn(nKeys))
				v := []byte(fmt.Sprintf("%s-w%d-gen%d", k, seed, gen))
				authMu.Lock()
				auth[string(k)] = v
				authMu.Unlock()
				r.Invalidate(k)
			}
		}(int64(w))
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			for i := 0; i < 20000; i++ {
				k := key(rnd.Intn(nKeys))
				read(k)
			}
			stop.Store(true)
		}(int64(100 + g))
	}
	wg.Wait()

	// Quiesced: every resident entry must now match the authoritative map.
	for i := 0; i < nKeys; i++ {
		k := key(i)
		if v, ok := r.Get(k); ok {
			if want := auth[string(k)]; string(v) != string(want) {
				t.Fatalf("stale hit for %q: got %q want %q", k, v, want)
			}
		}
	}
}

// benchRing is a default-sized ring with the keys that won a slot resident
// (1 KiB values, the ledger's size) beside as many that never asked for one.
func benchRing(b *testing.B) (r *Ring, resident, absent [][]byte) {
	r = New(Config{SampleEvery: 1})
	for i := 0; i < 1024; i++ {
		k := []byte(fmt.Sprintf("user%020d", i))
		r.BeginMiss(k)
		r.Install(r.BeginMiss(k), k, make([]byte, 1024))
		absent = append(absent, []byte(fmt.Sprintf("miss%020d", i)))
	}
	for i := 0; i < 1024; i++ { // a later key can have taken an earlier one's slot
		k := []byte(fmt.Sprintf("user%020d", i))
		if _, ok := r.Get(k); ok {
			resident = append(resident, k)
		}
	}
	if len(resident) < 512 {
		b.Fatalf("only %d keys resident", len(resident))
	}
	return r, resident, absent
}

func BenchmarkGetHit(b *testing.B) {
	r, resident, _ := benchRing(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.Get(resident[i%len(resident)]); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkGetMiss(b *testing.B) {
	r, _, absent := benchRing(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.Get(absent[i%len(absent)]); ok {
			b.Fatal("hit")
		}
	}
}

// BenchmarkBeginMiss is what every get that misses the ring pays on top of
// the probe: the version fence, and every eighth time the sampled count.
func BenchmarkBeginMiss(b *testing.B) {
	_, _, absent := benchRing(b)
	r := New(Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.BeginMiss(absent[i%len(absent)])
	}
}
