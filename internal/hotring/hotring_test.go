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

// oneSet is a ring of one shard holding a single 8-way set, so every key
// competes for the same ways.
func oneSet(cfg Config) *Ring {
	cfg.Entries, cfg.Shards = ways, 1
	return New(cfg)
}

// fill installs ways-n filler keys into r's one set, leaving n ways empty,
// and hits each filler hits times (so a filler's frequency is 1 + hits, up
// to maxFreq). It returns the fillers.
func fill(t *testing.T, r *Ring, n, hits int) [][]byte {
	t.Helper()
	var keys [][]byte
	for i := 0; i < ways-n; i++ {
		k := []byte(fmt.Sprintf("fill%d", i))
		for tries := 0; !r.Install(r.BeginMiss(k), k, []byte("f")); tries++ {
			if tries == 1000 {
				t.Fatalf("filler %q never installed", k)
			}
		}
		for j := 0; j < hits; j++ {
			r.Get(k)
		}
		keys = append(keys, k)
	}
	return keys
}

// TestGetMissThenPromote: into a full set, a key promotes on its
// PromoteAfter-th sampled miss, and its install wins the duel against the
// least-frequent way.
func TestGetMissThenPromote(t *testing.T) {
	r := oneSet(Config{SampleEvery: 1, PromoteAfter: 2})
	fill(t, r, 0, 0)
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
	if s.Hits < 2 || s.Promotions != ways+1 || s.Resident != ways {
		t.Fatalf("stats %+v", s)
	}
}

// TestFreeWayPromotesOnFirstMiss: at the default sampling, a miss whose set
// has an empty way promotes at once, until the set is full.
func TestFreeWayPromotesOnFirstMiss(t *testing.T) {
	r := oneSet(Config{})
	for i := 0; i < ways; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		tok := r.BeginMiss(key)
		if !tok.Promote || tok.Warm {
			t.Fatalf("miss %d into a set with an empty way: %+v, want a cold promoting token", i, tok)
		}
		if !r.Install(tok, key, []byte("v")) {
			t.Fatalf("install %d into an empty way failed", i)
		}
		if _, ok := r.Get(key); !ok {
			t.Fatalf("key %d not resident after its first miss", i)
		}
	}
	if tok := r.BeginMiss([]byte("late")); tok.Promote {
		t.Fatalf("first miss into a full set promoted: %+v", tok)
	}
}

// TestFullSetNeedsSampledDuel: into a full set of hot ways, a key needs
// PromoteAfter sampled misses before it carries a token, loses its first
// duels (each halving the least-frequent way) and wins one in the end.
func TestFullSetNeedsSampledDuel(t *testing.T) {
	const sampleEvery, promoteAfter = 2, 3
	r := oneSet(Config{SampleEvery: sampleEvery, PromoteAfter: promoteAfter})
	fillers := fill(t, r, 0, 100)
	key := []byte("challenger")
	misses := 0
	var tok Token
	for !tok.Promote {
		if misses++; misses > promoteAfter*sampleEvery {
			t.Fatalf("no token after %d misses", misses)
		}
		tok = r.BeginMiss(key)
	}
	if misses <= (promoteAfter-1)*sampleEvery {
		t.Fatalf("token after %d misses, before %d sampled ones", misses, promoteAfter)
	}
	if r.Install(tok, key, []byte("v")) {
		t.Fatal("challenger took a way from hot residents without a duel")
	}
	lost := 0
	for _, k := range fillers {
		if _, e := r.shards[0].set(0).find(tagOf(hash(k)), k); e.freq.Load() < maxFreq {
			lost++
		}
	}
	if lost != 1 {
		t.Fatalf("%d ways aged by one lost duel, want 1", lost)
	}
	for i := 0; i < 1000; i++ {
		if tok := r.BeginMiss(key); tok.Promote && r.Install(tok, key, []byte("v")) {
			return
		}
	}
	t.Fatal("challenger never won a duel")
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

// TestInvalidateRangeEmptiesHollow: a split empties hollow ways too, so
// once another key takes the freed way, the key's next miss into the full
// set is sampled like any other.
func TestInvalidateRangeEmptiesHollow(t *testing.T) {
	r := oneSet(Config{})
	fill(t, r, 1, 0)
	key := []byte("m1")
	promote(t, r, key, []byte("v1"))
	r.Invalidate(key)
	r.InvalidateRange([]byte("m"), []byte("n"))
	promote(t, r, []byte("z1"), []byte("v")) // takes the way the split emptied
	if tok := r.BeginMiss(key); tok.Promote {
		t.Fatalf("miss after InvalidateRange promoted without sampling: %+v", tok)
	}
}

// TestHollowLosesSlotWhenCold: in a full set, a hollow entry defends its
// way in the frequency duel like a resident one, and a challenger that
// keeps coming halves it out once its key stops being read.
func TestHollowLosesSlotWhenCold(t *testing.T) {
	r := oneSet(Config{SampleEvery: 1, PromoteAfter: 1})
	fillers := fill(t, r, 1, 100) // hotter than a: the duels go against a
	a, b := []byte("aa"), []byte("bb")
	promote(t, r, a, []byte("va"))
	for i := 0; i < 4; i++ {
		r.Get(a)
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
		t.Fatal("challenger took the hollow way without a duel")
	}
	for _, k := range fillers {
		if _, ok := r.Get(k); !ok {
			t.Fatalf("filler %q lost its way, not the cold hollow entry", k)
		}
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

// TestShardCountersOffSlotLine pins the shard layout: the counters a miss
// writes sit on a cache line of their own, apart from the set and version
// tables every probe reads, and shards stay whole lines apart. The hit
// counter is striped (internal/stripe pins its layout).
func TestShardCountersOffSlotLine(t *testing.T) {
	var s shard
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

// TestTagLineAligned: a set's 8 tags fill exactly one cache line, at every
// ring size, so a probe reads one line of tags.
func TestTagLineAligned(t *testing.T) {
	for _, cfg := range []Config{{Entries: 1, Shards: 1}, {Entries: 64, Shards: 2}, {}, {Entries: 1 << 16}} {
		r := New(cfg)
		for i := range r.shards {
			for j := 0; j < len(r.shards[i].tags); j += ways {
				if addr := uintptr(unsafe.Pointer(&r.shards[i].tags[j])); addr%cacheLine != 0 {
					t.Fatalf("%+v: shard %d set %d tag line at %#x, not line-aligned", cfg, i, j, addr)
				}
			}
		}
	}
}

// TestHitFrequencySaturates: an entry's hits stop writing its frequency at
// maxFreq.
func TestHitFrequencySaturates(t *testing.T) {
	r := New(Config{})
	key := []byte("k")
	promote(t, r, key, []byte("v"))
	before := r.Snapshot().Hits
	for i := 0; i < 10*maxFreq; i++ {
		r.Get(key)
	}
	h := hash(key)
	_, _, st := r.locate(h)
	if _, e := st.find(tagOf(h), key); e.freq.Load() != maxFreq {
		t.Fatalf("freq %d after %d hits, want %d", e.freq.Load(), 10*maxFreq, maxFreq)
	}
	if s := r.Snapshot(); s.Hits-before != 10*maxFreq {
		t.Fatalf("hits %d, want %d", s.Hits-before, 10*maxFreq)
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

// TestSlotDuelAgesResident: the ways of a full set are hot; a challenger
// must out-count the least-frequent one, which aging guarantees eventually.
func TestSlotDuelAgesResident(t *testing.T) {
	r := oneSet(Config{SampleEvery: 1, PromoteAfter: 1})
	fill(t, r, 0, 100)
	b := []byte("bb")
	lost := 0
	for i := 0; i < 1000; i++ {
		if _, ok := r.Get(b); ok {
			if lost == 0 {
				t.Fatal("challenger took a hot way without a duel")
			}
			return
		}
		if tok := r.BeginMiss(b); tok.Promote && !r.Install(tok, b, []byte("vb")) {
			lost++
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
