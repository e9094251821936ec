package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"unikv/internal/vfs"
)

// TestConcurrentStress runs several writers (each owning a disjoint key
// stripe), point readers, and scanners concurrently across flushes,
// merges, GCs, and splits, then verifies the final state against each
// writer's model.
func TestConcurrentStress(t *testing.T) {
	runConcurrentStress(t, nil)
}

// TestConcurrentStressTinyCache reruns the stress with a read cache small
// enough to evict constantly while merges/GCs/splits retire tables and
// logs underneath it. The model verification at the end is the coherence
// check: a stale or cross-key cache hit surfaces as a wrong value.
func TestConcurrentStressTinyCache(t *testing.T) {
	// 256 KiB: large enough that 4 KiB blocks pass the per-shard admission
	// filter, small enough to evict continuously under the workload.
	runConcurrentStress(t, func(o *Options) { o.CacheBytes = 256 << 10 })
}

func runConcurrentStress(t *testing.T, tweak func(*Options)) {
	fs := vfs.NewMem()
	opts := smallOpts(fs)
	opts.GCRatio = 0.25
	if tweak != nil {
		tweak(&opts)
	}
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	watchGauges(t, db, false)

	const (
		writers       = 4
		keysPerStripe = 400
		opsPerWriter  = 4000
		readers       = 3
	)
	stripeKey := func(w, i int) []byte {
		return []byte(fmt.Sprintf("w%d-key-%05d", w, i))
	}

	models := make([]map[string]string, writers)
	errCh := make(chan error, writers+readers)
	stop := make(chan struct{})

	var wgWriters sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		models[w] = make(map[string]string)
		wgWriters.Add(1)
		go func() {
			defer wgWriters.Done()
			rnd := rand.New(rand.NewSource(int64(w)))
			for op := 0; op < opsPerWriter; op++ {
				i := rnd.Intn(keysPerStripe)
				k := stripeKey(w, i)
				if rnd.Intn(10) == 0 {
					if err := db.Delete(k); err != nil {
						errCh <- fmt.Errorf("writer %d delete: %w", w, err)
						return
					}
					delete(models[w], string(k))
				} else {
					v := fmt.Sprintf("w%d-val-%d-%s", w, op, bytes.Repeat([]byte("x"), rnd.Intn(80)))
					if err := db.Put(k, []byte(v)); err != nil {
						errCh <- fmt.Errorf("writer %d put: %w", w, err)
						return
					}
					models[w][string(k)] = v
				}
			}
		}()
	}

	// Readers and scanners run until the writers finish. They can only
	// check weak invariants (no errors, keys belong to a stripe) because
	// the stripes mutate under them.
	var wgReaders sync.WaitGroup
	for g := 0; g < readers; g++ {
		g := g
		wgReaders.Add(1)
		go func() {
			defer wgReaders.Done()
			rnd := rand.New(rand.NewSource(int64(100 + g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := rnd.Intn(writers)
				k := stripeKey(w, rnd.Intn(keysPerStripe))
				if _, err := db.Get(k); err != nil && err != ErrNotFound {
					errCh <- fmt.Errorf("reader: %w", err)
					return
				}
				kvs, err := db.Scan(k, nil, 20)
				if err != nil {
					errCh <- fmt.Errorf("scanner: %w", err)
					return
				}
				for _, kv := range kvs {
					if !bytes.HasPrefix(kv.Key, []byte("w")) {
						errCh <- fmt.Errorf("scanner: alien key %q", kv.Key)
						return
					}
				}
			}
		}()
	}

	wgWriters.Wait()
	close(stop)
	wgReaders.Wait()

	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Final verification against each stripe's model.
	for w := 0; w < writers; w++ {
		for k, v := range models[w] {
			got, err := db.Get([]byte(k))
			if err != nil || string(got) != v {
				t.Fatalf("stripe %d key %s: %q %v want %q", w, k, got, err, v)
			}
		}
		// Deleted keys absent.
		for i := 0; i < keysPerStripe; i++ {
			k := stripeKey(w, i)
			if _, ok := models[w][string(k)]; ok {
				continue
			}
			if _, err := db.Get(k); err != ErrNotFound {
				t.Fatalf("stripe %d key %s should be absent: %v", w, k, err)
			}
		}
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("integrity after stress: %v", err)
	}
	m := db.Metrics()
	if m.Merges == 0 {
		t.Fatal("stress never merged — limits too large for the workload")
	}
	// The cache defaults on; the workload must actually have exercised it
	// or the coherence claim above is vacuous.
	if m.CacheBlockHits+m.CacheBlockMisses+m.CacheValueHits+m.CacheValueMisses == 0 {
		t.Fatal("read cache never consulted during stress")
	}
}
