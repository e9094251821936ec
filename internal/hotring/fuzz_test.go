package hotring

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzRingModel drives a Ring with Get, BeginMiss, Install, Invalidate and
// InvalidateRange over at most 16 keys, beside a map that stands in for the
// engine's store. A write updates (or deletes from) the map and then
// invalidates, as the engine does; a miss reads the map after taking its
// token and may install that value many ops later, so writes land between
// read and install. Every hit must return the map's current value: a hit
// on a deleted key, or on a value a later write replaced, is a stale hit.
// After every op no key may sit in two ways of its set. Each input runs on
// two rings: two shards of one set each, and one shard whose one set all 16
// keys compete for, so full sets, duels, aging, hollow entries and refills
// all happen within a few dozen ops.
func FuzzRingModel(f *testing.F) {
	f.Add([]byte{0x10, 0x20, 0x30, 0x40, 0x11, 0x21, 0x31, 0x01, 0x41})
	f.Add([]byte{0x15, 0x25, 0x35, 0x25, 0x35, 0x05, 0x45, 0x15, 0x25, 0x35, 0x05})
	f.Add(bytes.Repeat([]byte{0x13, 0x23, 0x33, 0x43, 0x53, 0x03, 0x63}, 8))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 {
			return
		}
		for _, shards := range []int{2, 1} {
			r := New(Config{Entries: 4, Shards: shards, MaxValue: 16,
				SampleEvery: int(ops[0]%3) + 1, PromoteAfter: int(ops[0]/3%3) + 1})
			runRingModel(t, r, ops[1:])
		}
	})
}

// runRingModel is FuzzRingModel's body on one ring.
func runRingModel(t *testing.T, r *Ring, ops []byte) {
	model := map[string][]byte{}
	key := func(i byte) []byte { return []byte(fmt.Sprintf("k%02d", i%16)) }
	type pending struct {
		tok   Token
		key   []byte
		value []byte
		found bool
	}
	var inflight []pending
	gen := 0
	capacity := int64(len(r.shards) * len(r.shards[0].slots))
	for i, op := range ops {
		k := key(op)
		switch (op >> 4) % 6 {
		case 0: // Get
			v, ok := r.Get(k)
			if !ok {
				break
			}
			want, found := model[string(k)]
			if !found || !bytes.Equal(v, want) {
				t.Fatalf("op %d: stale hit %s = %q, model has %q (found %v)", i, k, v, want, found)
			}
		case 1, 2: // BeginMiss, then the slow-path read
			want, found := model[string(k)]
			inflight = append(inflight, pending{r.BeginMiss(k), k, want, found})
		case 3: // Install the oldest in-flight read, as a Get that found it would
			if len(inflight) == 0 {
				break
			}
			p := inflight[0]
			inflight = inflight[1:]
			if !p.found || !p.tok.Promote {
				break
			}
			if r.Install(p.tok, p.key, p.value) {
				if want, found := model[string(p.key)]; !found || !bytes.Equal(p.value, want) {
					t.Fatalf("op %d: installed %s = %q, model has %q (found %v)", i, p.key, p.value, want, found)
				}
			}
		case 4: // Put or Delete, then Invalidate
			gen++
			switch gen % 5 {
			case 0:
				delete(model, string(k))
			case 1:
				model[string(k)] = []byte{} // an empty value is a value, not a hollow entry
			default:
				model[string(k)] = []byte(fmt.Sprintf("v%d", gen))
			}
			r.Invalidate(k)
		case 5: // InvalidateRange over [k, k+span), or [k, +inf)
			var upper []byte
			if op%4 != 3 {
				upper = key(op%16 + op%4)
			}
			r.InvalidateRange(k, upper)
		}
		if s := r.Snapshot(); s.Resident < 0 || s.Resident > capacity || s.ResidentBytes < 0 {
			t.Fatalf("op %d: gauges out of range: %+v", i, s)
		}
		checkOneWayPerKey(t, r, i)
	}
	for i := byte(0); i < 16; i++ {
		k := key(i)
		if v, ok := r.Get(k); ok {
			if want, found := model[string(k)]; !found || !bytes.Equal(v, want) {
				t.Fatalf("final: stale hit %s = %q, model has %q (found %v)", k, v, want, found)
			}
		}
	}
}

// checkOneWayPerKey fails if a key, resident or hollow, occupies two ways,
// or a way's tag disagrees with its entry.
func checkOneWayPerKey(t *testing.T, r *Ring, op int) {
	t.Helper()
	seen := map[string]bool{}
	for i := range r.shards {
		s := &r.shards[i]
		for w := range s.slots {
			e, tag := s.slots[w].Load(), s.tags[w].Load()
			if e == nil {
				if tag != 0 {
					t.Fatalf("op %d: empty way %d of shard %d has tag %#x", op, w, i, tag)
				}
				continue
			}
			if tag != tagOf(hash(e.key)) {
				t.Fatalf("op %d: way %d of shard %d holds %q under tag %#x", op, w, i, e.key, tag)
			}
			if seen[string(e.key)] {
				t.Fatalf("op %d: key %q sits in two ways", op, e.key)
			}
			seen[string(e.key)] = true
		}
	}
}
