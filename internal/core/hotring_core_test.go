package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"unikv/internal/vfs"
)

// hotOpts makes the hot ring maximally aggressive (sample every miss,
// promote on the first sample) on top of the tiny flush/merge/split limits,
// so a short test exercises promotion, invalidation, and the maintenance
// races constantly.
func hotOpts(fs vfs.FS) Options {
	o := smallOpts(fs)
	o.exp.HotRingSampleEvery = 1
	o.exp.HotRingPromoteAfter = 1
	return o
}

// TestHotRingReadYourWrites is the staleness storm (run it with -race):
// writers each own a disjoint key set and verify read-your-writes after
// every Put and Delete, while readers hammer the whole hot set — promoting
// entries as fast as the writers invalidate them — and assert that the
// per-key generation they observe never goes backwards. The tiny limits
// force flushes, merges, scan merges, splits, and GC to run throughout, so
// a hot entry surviving any of those stale would trip the checks.
func TestHotRingReadYourWrites(t *testing.T) {
	runHotRingStorm(t, 0)
}

// TestHotRingReadYourWritesBackground repeats the storm with maintenance on
// background workers, so flush/merge/split/GC race the ring from their own
// goroutines instead of the writers'.
func TestHotRingReadYourWritesBackground(t *testing.T) {
	runHotRingStorm(t, 2)
}

func runHotRingStorm(t *testing.T, bgWorkers int) {
	fs := vfs.NewMem()
	opts := hotOpts(fs)
	opts.BackgroundWorkers = bgWorkers
	// Push enough volume through tiny tiers that merges, splits, and GC all
	// run repeatedly while the storm is in flight.
	opts.MemtableSize = 1 << 10
	opts.UnsortedLimit = 4 << 10
	opts.PartitionSizeLimit = 24 << 10
	opts.MaxLogSize = 4 << 10
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const (
		writers     = 4
		keysPer     = 64
		iters       = 600
		readers     = 4
		readsPerRdr = 6000
	)
	wkey := func(w, i int) []byte { return []byte(fmt.Sprintf("w%d-key-%03d", w, i)) }
	wval := func(w, i, gen int) []byte {
		return []byte(fmt.Sprintf("w%d-key-%03d:gen%08d:%s", w, i, gen,
			bytes.Repeat([]byte("x"), 160)))
	}
	parseGen := func(v []byte) (int, bool) {
		var w, i, gen int
		if _, err := fmt.Sscanf(string(v), "w%d-key-%03d:gen%08d", &w, &i, &gen); err != nil {
			return 0, false
		}
		return gen, true
	}

	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(w)))
			for gen := 1; gen <= iters; gen++ {
				i := rnd.Intn(keysPer)
				k := wkey(w, i)
				if gen%7 == 0 {
					if err := db.Delete(k); err != nil {
						errCh <- fmt.Errorf("delete %s: %w", k, err)
						return
					}
					if _, err := db.Get(k); err != ErrNotFound {
						errCh <- fmt.Errorf("read-your-delete %s: got %v, want ErrNotFound", k, err)
						return
					}
					continue
				}
				want := wval(w, i, gen)
				if err := db.Put(k, want); err != nil {
					errCh <- fmt.Errorf("put %s: %w", k, err)
					return
				}
				got, err := db.Get(k)
				if err != nil {
					errCh <- fmt.Errorf("read-your-write %s: %w", k, err)
					return
				}
				if !bytes.Equal(got, want) {
					errCh <- fmt.Errorf("stale read-your-write %s: got %q want %q", k, got, want)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(1000 + r)))
			seen := map[string]int{}
			for n := 0; n < readsPerRdr; n++ {
				w, i := rnd.Intn(writers), rnd.Intn(keysPer)
				k := wkey(w, i)
				v, err := db.Get(k)
				if err == ErrNotFound {
					continue
				}
				if err != nil {
					errCh <- fmt.Errorf("reader get %s: %w", k, err)
					return
				}
				gen, ok := parseGen(v)
				if !ok {
					errCh <- fmt.Errorf("reader get %s: unparseable value %q", k, v)
					return
				}
				if prev := seen[string(k)]; gen < prev {
					errCh <- fmt.Errorf("stale hot hit %s: saw gen %d after gen %d", k, gen, prev)
					return
				}
				seen[string(k)] = gen
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	m := db.Metrics()
	if m.HotRingHits == 0 || m.HotRingPromotions == 0 || m.HotRingInvalidations == 0 {
		t.Fatalf("storm never exercised the ring: %+v", m)
	}
	if m.Flushes == 0 || m.Merges == 0 || m.Splits == 0 {
		t.Fatalf("storm never exercised maintenance: flushes=%d merges=%d splits=%d",
			m.Flushes, m.Merges, m.Splits)
	}
}

// TestHotRingEquivalence is the property test: one random op trace applied
// to a ring-on DB (aggressive promotion) and a ring-off DB must produce
// identical results for every Get, Put, Delete, and Scan.
func TestHotRingEquivalence(t *testing.T) {
	runHotRingEquivalence(t, hotOpts(vfs.NewMem()), func(rnd *rand.Rand) int { return rnd.Intn(200) })
}

// TestHotRingEquivalenceDefaultSampling replays a skewed trace (most ops on
// 16 hot keys) at the ring's default sampling. There, a key earns its slot
// once, and a write leaves it hollow: the next read refills it, so refills
// are how the trace's hot keys get back into the ring.
func TestHotRingEquivalenceDefaultSampling(t *testing.T) {
	runHotRingEquivalence(t, smallOpts(vfs.NewMem()), func(rnd *rand.Rand) int {
		if rnd.Intn(10) < 8 {
			return rnd.Intn(16)
		}
		return rnd.Intn(200)
	})
}

// runHotRingEquivalence applies one random trace, whose keys pick draws,
// to a DB opened with onOpts and to a ring-off DB.
func runHotRingEquivalence(t *testing.T, onOpts Options, pick func(*rand.Rand) int) {
	on, err := Open("on", onOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer on.Close()
	offOpts := smallOpts(vfs.NewMem())
	offOpts.HotRingEntries = HotRingOff
	off, err := Open("off", offOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()

	rnd := rand.New(rand.NewSource(42))
	k := func() []byte { return []byte(fmt.Sprintf("key-%03d", pick(rnd))) }
	for op := 0; op < 6000; op++ {
		switch rnd.Intn(10) {
		case 0, 1, 2, 3: // Put
			key := k()
			val := []byte(fmt.Sprintf("val-%d-%s", op, bytes.Repeat([]byte("y"), rnd.Intn(80))))
			if err := on.Put(key, val); err != nil {
				t.Fatalf("op %d: on.Put: %v", op, err)
			}
			if err := off.Put(key, val); err != nil {
				t.Fatalf("op %d: off.Put: %v", op, err)
			}
		case 4: // Delete
			key := k()
			if err := on.Delete(key); err != nil {
				t.Fatalf("op %d: on.Delete: %v", op, err)
			}
			if err := off.Delete(key); err != nil {
				t.Fatalf("op %d: off.Delete: %v", op, err)
			}
		case 5: // Scan
			start := k()
			end := append(append([]byte(nil), start...), 0xff)
			a, errA := on.Scan(start, end, 20)
			b, errB := off.Scan(start, end, 20)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("op %d: scan errs diverge: %v vs %v", op, errA, errB)
			}
			if len(a) != len(b) {
				t.Fatalf("op %d: scan lengths diverge: %d vs %d", op, len(a), len(b))
			}
			for i := range a {
				if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
					t.Fatalf("op %d: scan[%d] diverges: %q=%q vs %q=%q",
						op, i, a[i].Key, a[i].Value, b[i].Key, b[i].Value)
				}
			}
		default: // Get
			key := k()
			a, errA := on.Get(key)
			b, errB := off.Get(key)
			if !errors.Is(errA, errB) && (errA != nil || errB != nil) {
				t.Fatalf("op %d: Get(%s) errs diverge: %v vs %v", op, key, errA, errB)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("op %d: Get(%s) diverges: %q vs %q", op, key, a, b)
			}
		}
	}
	if m := on.Metrics(); m.HotRingHits == 0 || m.HotRingInvalidations == 0 {
		t.Fatalf("trace never hit the ring, or never wrote a resident key: %+v", m)
	}
}

// TestRouterInconsistencyBounded verifies the bounded route→covers retry:
// a router whose boundary invariant is broken (partitionFor picks a
// partition that never covers the key) must fail every operation with the
// fatal-classified ErrRouterInconsistent instead of spinning forever —
// pre-bound, each of these calls hung (read.go's unbounded for loop).
func TestRouterInconsistencyBounded(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs)
	defer db.Close()
	if err := db.Put([]byte("aaa"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	// Break the invariant: the sole partition claims to start above every
	// key, so covers always fails while partitionFor still returns it.
	db.router.Lock()
	saved := db.partitions()[0].lower
	db.partitions()[0].lower = []byte("zzz-broken")
	db.router.Unlock()
	defer func() {
		db.router.Lock()
		db.partitions()[0].lower = saved
		db.router.Unlock()
	}()

	check := func(name string, err error) {
		t.Helper()
		if !errors.Is(err, ErrRouterInconsistent) {
			t.Fatalf("%s: got %v, want ErrRouterInconsistent", name, err)
		}
		if c := Classify(err); c != ClassFatal {
			t.Fatalf("%s: classified %v, want fatal", name, c)
		}
	}
	_, err := db.Get([]byte("aaa"))
	check("Get", err)
	_, err = db.Scan([]byte("a"), []byte("b"), 10)
	check("Scan", err)
	check("Put", db.Put([]byte("aaa"), []byte("v2")))
	b := NewBatch()
	b.Put([]byte("aaa"), []byte("v3"))
	check("ApplyBatch", db.ApplyBatch(b))
}
