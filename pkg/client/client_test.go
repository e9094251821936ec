package client

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unikv"
	"unikv/internal/server"
	"unikv/internal/vfs"
)

// startServer serves a fresh DB on loopback and returns the pieces.
func startServer(t *testing.T, dbOpts *unikv.Options, srvOpts server.Options) (*server.Server, *unikv.DB, string) {
	t.Helper()
	return startServerAt(t, t.TempDir(), dbOpts, srvOpts)
}

// startServerAt is startServer over the store in dir.
func startServerAt(t *testing.T, dir string, dbOpts *unikv.Options, srvOpts server.Options) (*server.Server, *unikv.DB, string) {
	t.Helper()
	if dbOpts == nil {
		dbOpts = &unikv.Options{FS: vfs.NewMem()}
	}
	db, err := unikv.Open(dir, dbOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s := server.New(db, srvOpts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return s, db, ln.Addr().String()
}

func dialClient(t *testing.T, addr string, opts *Options) *Client {
	t.Helper()
	c, err := Dial(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestRoundTrips drives every operation through the full
// client→server→engine path.
func TestRoundTrips(t *testing.T) {
	_, db, addr := startServer(t, nil, server.Options{})
	c := dialClient(t, addr, nil)

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	// GET of a missing key maps back onto unikv.ErrNotFound.
	if _, err := c.Get([]byte("missing")); !errors.Is(err, unikv.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}

	if err := c.Put([]byte("user:42"), []byte("alice")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get([]byte("user:42"))
	if err != nil || string(v) != "alice" {
		t.Fatalf("get: %q, %v", v, err)
	}
	// The write went through the real engine underneath.
	if dv, err := db.Get([]byte("user:42")); err != nil || string(dv) != "alice" {
		t.Fatalf("engine get: %q, %v", dv, err)
	}

	// Empty value round-trips as empty, not as not-found.
	if err := c.Put([]byte("empty"), nil); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Get([]byte("empty")); err != nil || len(v) != 0 {
		t.Fatalf("empty value: %q, %v", v, err)
	}

	if err := c.Delete([]byte("user:42")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get([]byte("user:42")); !errors.Is(err, unikv.ErrNotFound) {
		t.Fatalf("after delete: %v", err)
	}
	// Deleting an absent key is not an error, mirroring DB.Delete.
	if err := c.Delete([]byte("user:42")); err != nil {
		t.Fatal(err)
	}

	// Oversized key maps onto unikv.ErrKeyTooLarge.
	if err := c.Put(make([]byte, 1<<17), []byte("v")); !errors.Is(err, unikv.ErrKeyTooLarge) {
		t.Fatalf("want ErrKeyTooLarge, got %v", err)
	}
}

func TestScan(t *testing.T) {
	_, _, addr := startServer(t, nil, server.Options{})
	c := dialClient(t, addr, nil)

	for i := 0; i < 20; i++ {
		if err := c.Put([]byte(fmt.Sprintf("scan:%03d", i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Put([]byte("zzz"), []byte("tail")); err != nil {
		t.Fatal(err)
	}

	kvs, err := c.Scan([]byte("scan:"), []byte("scan;"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 20 {
		t.Fatalf("bounded scan: %d pairs, want 20", len(kvs))
	}
	for i, kv := range kvs {
		if want := fmt.Sprintf("scan:%03d", i); string(kv.Key) != want || kv.Value[0] != byte(i) {
			t.Fatalf("pair %d: %q=%v", i, kv.Key, kv.Value)
		}
	}

	// Limit applies.
	kvs, err = c.Scan([]byte("scan:"), []byte("scan;"), 5)
	if err != nil || len(kvs) != 5 {
		t.Fatalf("limited scan: %d pairs, %v", len(kvs), err)
	}

	// nil end scans to the end of the keyspace.
	kvs, err = c.Scan([]byte("scan:015"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 6 || string(kvs[5].Key) != "zzz" {
		t.Fatalf("unbounded scan: %d pairs, last %q", len(kvs), kvs[len(kvs)-1].Key)
	}
}

func TestBatchApply(t *testing.T) {
	_, _, addr := startServer(t, nil, server.Options{})
	c := dialClient(t, addr, nil)

	if err := c.Put([]byte("b:doomed"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	b := NewBatch()
	for i := 0; i < 10; i++ {
		b.Put([]byte(fmt.Sprintf("b:%02d", i)), []byte{byte(i)})
	}
	b.Delete([]byte("b:doomed"))
	if b.Len() != 11 {
		t.Fatalf("Len = %d", b.Len())
	}
	if err := c.Apply(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		v, err := c.Get([]byte(fmt.Sprintf("b:%02d", i)))
		if err != nil || v[0] != byte(i) {
			t.Fatalf("batch key %d: %v %v", i, v, err)
		}
	}
	if _, err := c.Get([]byte("b:doomed")); !errors.Is(err, unikv.ErrNotFound) {
		t.Fatalf("batch delete: %v", err)
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset did not empty the batch")
	}
}

// TestPoolSharing: a pool smaller than the caller count still serves all
// callers (they queue for connections rather than failing).
func TestPoolSharing(t *testing.T) {
	_, _, addr := startServer(t, nil, server.Options{})
	c := dialClient(t, addr, &Options{PoolSize: 2})

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := []byte(fmt.Sprintf("pool:%d", g))
			if err := c.Put(key, key); err != nil {
				errc <- err
				return
			}
			v, err := c.Get(key)
			if err != nil {
				errc <- err
				return
			}
			if !bytes.Equal(v, key) {
				errc <- fmt.Errorf("pool:%d read %q", g, v)
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestGroupCommitCoalescing is the acceptance check: with >= 8 clients
// issuing concurrent PUTs against a SyncWrites DB, the server must
// coalesce them — strictly fewer DB.Apply group commits than write
// requests, every op accounted for, observed via the Metrics counters.
func TestGroupCommitCoalescing(t *testing.T) {
	// Real files so the WAL fsync in Apply has actual latency for the
	// queue to fill behind; that window is what group commit exploits.
	s, _, addr := startServer(t, &unikv.Options{SyncWrites: true}, server.Options{})

	const clients = 8
	const putsPerClient = 100
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(addr, &Options{PoolSize: 1})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < putsPerClient; i++ {
				key := []byte(fmt.Sprintf("gc:%d:%04d", g, i))
				if err := c.Put(key, bytes.Repeat([]byte{byte(g)}, 64)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	m := s.Metrics()
	const writes = clients * putsPerClient
	if m.WriteRequests != writes {
		t.Fatalf("WriteRequests = %d, want %d", m.WriteRequests, writes)
	}
	if m.GroupedOps != writes {
		t.Fatalf("GroupedOps = %d, want %d (no op may be lost or duplicated)", m.GroupedOps, writes)
	}
	if m.GroupCommits >= m.WriteRequests {
		t.Fatalf("no coalescing: %d group commits for %d write requests", m.GroupCommits, m.WriteRequests)
	}
	if m.MaxGroupOps < 2 {
		t.Fatalf("MaxGroupOps = %d, want >= 2", m.MaxGroupOps)
	}
	t.Logf("coalescing: %d write requests -> %d group commits (max group %d)",
		m.WriteRequests, m.GroupCommits, m.MaxGroupOps)

	// Nothing was lost: every acknowledged key is readable.
	c := dialClient(t, addr, nil)
	for g := 0; g < clients; g++ {
		for i := 0; i < putsPerClient; i++ {
			if _, err := c.Get([]byte(fmt.Sprintf("gc:%d:%04d", g, i))); err != nil {
				t.Fatalf("lost gc:%d:%04d: %v", g, i, err)
			}
		}
	}
}

// TestGroupCommitIsolatesBadRequest: a connection whose every PUT is
// rejected (a 128 KiB key) shares group commits with connections writing
// valid keys on a SyncWrites store. The bad request must fail alone — no
// valid put may be answered with its error, or be left unapplied — and the
// bad client must get TOO_LARGE every time.
func TestGroupCommitIsolatesBadRequest(t *testing.T) {
	s, db, addr := startServer(t, &unikv.Options{SyncWrites: true}, server.Options{})

	const goodClients, putsPerClient = 4, 300
	var done atomic.Bool
	var badPuts atomic.Int64
	var bad sync.WaitGroup
	bad.Add(1)
	go func() {
		defer bad.Done()
		c, err := Dial(addr, &Options{PoolSize: 1})
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		huge := make([]byte, 128<<10)
		for !done.Load() {
			badPuts.Add(1)
			if err := c.Put(huge, []byte("v")); !errors.Is(err, unikv.ErrKeyTooLarge) {
				t.Errorf("oversized put: %v, want ErrKeyTooLarge", err)
				return
			}
		}
	}()

	var failed atomic.Int64
	var good sync.WaitGroup
	for g := 0; g < goodClients; g++ {
		good.Add(1)
		go func(g int) {
			defer good.Done()
			c, err := Dial(addr, &Options{PoolSize: 1})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < putsPerClient; i++ {
				if err := c.Put([]byte(fmt.Sprintf("iso:%d:%04d", g, i)), []byte("v")); err != nil {
					if failed.Add(1) == 1 {
						t.Errorf("valid put iso:%d:%04d: %v", g, i, err)
					}
				}
			}
		}(g)
	}
	good.Wait()
	done.Store(true)
	bad.Wait()

	if n := failed.Load(); n != 0 {
		t.Fatalf("%d of %d valid puts failed beside a connection sending oversized keys", n, goodClients*putsPerClient)
	}
	for g := 0; g < goodClients; g++ {
		for i := 0; i < putsPerClient; i++ {
			if _, err := db.Get([]byte(fmt.Sprintf("iso:%d:%04d", g, i))); err != nil {
				t.Fatalf("acknowledged iso:%d:%04d not applied: %v", g, i, err)
			}
		}
	}
	m := s.Metrics()
	if m.MaxGroupOps < 2 {
		t.Fatalf("MaxGroupOps = %d: no commit was ever shared, the test proved nothing", m.MaxGroupOps)
	}
	t.Logf("%d valid puts beside %d rejected ones, %d group commits (largest %d)",
		goodClients*putsPerClient, badPuts.Load(), m.GroupCommits, m.MaxGroupOps)
}

// TestConcurrentSoak hammers the server with mixed GET/PUT/DELETE/SCAN/
// BATCH traffic from many clients; run under -race it doubles as the
// serving path's data-race check. Every client verifies its own keyspace
// at the end (clients don't overlap, so reads are deterministic).
func TestConcurrentSoak(t *testing.T) {
	s, _, addr := startServer(t, nil, server.Options{})

	const clients = 10
	const opsPerClient = 300
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs <- soakOne(addr, g, opsPerClient)
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	m := s.Metrics()
	if m.Requests < clients*opsPerClient {
		t.Fatalf("Requests = %d, want >= %d", m.Requests, clients*opsPerClient)
	}
	// The server counts a request out after flushing its response, so the
	// last client can get here first: give the gauge a moment to settle.
	for deadline := time.Now().Add(time.Second); m.InFlight != 0 && time.Now().Before(deadline); m = s.Metrics() {
		time.Sleep(time.Millisecond)
	}
	if m.InFlight != 0 {
		t.Fatalf("InFlight = %d after quiesce, want 0", m.InFlight)
	}
}

// soakOne runs one client's randomized op mix over its own key range,
// tracking expected contents and verifying at the end.
func soakOne(addr string, g, ops int) error {
	c, err := Dial(addr, &Options{PoolSize: 2})
	if err != nil {
		return err
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(int64(g) + 1))
	expect := map[string][]byte{}
	key := func(i int) []byte { return []byte(fmt.Sprintf("soak:%d:%04d", g, i)) }
	for i := 0; i < ops; i++ {
		k := key(rng.Intn(100))
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // put
			v := bytes.Repeat([]byte{byte(rng.Intn(256))}, 1+rng.Intn(128))
			if err := c.Put(k, v); err != nil {
				return fmt.Errorf("client %d put: %w", g, err)
			}
			expect[string(k)] = v
		case 4: // delete
			if err := c.Delete(k); err != nil {
				return fmt.Errorf("client %d delete: %w", g, err)
			}
			delete(expect, string(k))
		case 5: // batch
			b := NewBatch()
			for j := 0; j < 5; j++ {
				bk := key(rng.Intn(100))
				bv := []byte(fmt.Sprintf("batch:%d:%d", i, j))
				b.Put(bk, bv)
				expect[string(bk)] = bv
			}
			if err := c.Apply(b); err != nil {
				return fmt.Errorf("client %d apply: %w", g, err)
			}
		case 6: // scan own range
			prefix := []byte(fmt.Sprintf("soak:%d:", g))
			kvs, err := c.Scan(prefix, []byte(fmt.Sprintf("soak:%d;", g)), 0)
			if err != nil {
				return fmt.Errorf("client %d scan: %w", g, err)
			}
			if len(kvs) != len(expect) {
				return fmt.Errorf("client %d scan: %d pairs, expect %d", g, len(kvs), len(expect))
			}
		default: // get
			v, err := c.Get(k)
			want, ok := expect[string(k)]
			if !ok {
				if !errors.Is(err, unikv.ErrNotFound) {
					return fmt.Errorf("client %d get absent %q: %v", g, k, err)
				}
			} else if err != nil || !bytes.Equal(v, want) {
				return fmt.Errorf("client %d get %q: %q, %v (want %q)", g, k, v, err, want)
			}
		}
	}
	// Final verification of the whole keyspace.
	for ks, want := range expect {
		v, err := c.Get([]byte(ks))
		if err != nil || !bytes.Equal(v, want) {
			return fmt.Errorf("client %d final get %q: %q, %v", g, ks, v, err)
		}
	}
	return nil
}

// TestGracefulShutdownDrain: requests acknowledged before or during Close
// must be durable in the engine; requests after Close fail cleanly; Close
// returns with nothing in flight.
func TestGracefulShutdownDrain(t *testing.T) {
	s, db, addr := startServer(t, nil, server.Options{})

	const clients = 6
	type ack struct {
		g, last int // highest acknowledged sequence per client
	}
	acks := make(chan ack, clients)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(addr, &Options{PoolSize: 1})
			if err != nil {
				acks <- ack{g, -1}
				return
			}
			defer c.Close()
			last := -1
			for i := 0; ; i++ {
				if stop.Load() && i > 0 {
					break
				}
				key := []byte(fmt.Sprintf("drain:%d:%06d", g, i))
				if err := c.Put(key, []byte("v")); err != nil {
					break // server went away mid-shutdown: expected
				}
				last = i
			}
			acks <- ack{g, last}
		}(g)
	}

	// Let traffic build, then drain.
	time.Sleep(50 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	wg.Wait()
	close(acks)

	// Every acknowledged write is in the engine: an OK response means the
	// group commit completed before the server let the connection go.
	total := 0
	for a := range acks {
		for i := 0; i <= a.last; i++ {
			key := []byte(fmt.Sprintf("drain:%d:%06d", a.g, i))
			if _, err := db.Get(key); err != nil {
				t.Fatalf("acknowledged write %s lost: %v", key, err)
			}
		}
		total += a.last + 1
	}
	if total == 0 {
		t.Fatal("no writes were acknowledged before shutdown; test proved nothing")
	}
	t.Logf("drained cleanly with %d acknowledged writes intact", total)

	if m := s.Metrics(); m.InFlight != 0 {
		t.Fatalf("InFlight = %d after Close, want 0", m.InFlight)
	}

	// New work is refused after Close.
	if _, err := Dial(addr, &Options{DialTimeout: time.Second}); err == nil {
		t.Fatal("Dial after Close should fail")
	}
}

// TestStats: the client's Stats mirrors the server's own snapshot.
func TestStats(t *testing.T) {
	s, _, addr := startServer(t, nil, server.Options{})
	c := dialClient(t, addr, nil)

	for i := 0; i < 5; i++ {
		if err := c.Put([]byte{byte('a' + i)}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	m, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if m.WriteRequests != 5 || m.Engine.Puts != 5 {
		t.Fatalf("stats: %+v", m)
	}
	if m.BytesIn == 0 || m.BytesOut == 0 || m.Requests < 6 {
		t.Fatalf("wire counters missing: %+v", m)
	}
	sm := s.Metrics()
	if sm.WriteRequests != m.WriteRequests {
		t.Fatalf("server and wire snapshots disagree: %+v vs %+v", sm, m)
	}
}

// TestClientClosed: methods after Close fail fast with ErrClientClosed.
func TestClientClosed(t *testing.T) {
	_, _, addr := startServer(t, nil, server.Options{})
	c := dialClient(t, addr, nil)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("want ErrClientClosed, got %v", err)
	}
	if err := c.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestWritersReuseBuffers: several connections write concurrently, each
// reusing one key and one value buffer for every request and scribbling
// over them as soon as Put or Apply returns. The engine keeps nothing of a
// request's bytes after acknowledging it — the server's read buffer, the
// group commit's merged batch, the WAL scratch and the memtable each hold
// their own copy — so every value reads back exactly (run under -race).
func TestWritersReuseBuffers(t *testing.T) {
	_, db, addr := startServer(t, nil, server.Options{})
	c := dialClient(t, addr, &Options{PoolSize: 4})
	const writers, perWriter = 4, 300
	kf := func(w, i int) string { return fmt.Sprintf("w%d-key-%05d", w, i) }
	vf := func(w, i int) string {
		return fmt.Sprintf("w%d-value-%05d-%s", w, i, bytes.Repeat([]byte{byte('a' + i%26)}, 100+i%50))
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var kbuf, vbuf []byte
			b := NewBatch()
			for i := 0; i < perWriter; i++ {
				kbuf = append(kbuf[:0], kf(w, i)...)
				vbuf = append(vbuf[:0], vf(w, i)...)
				var err error
				if i%4 == 0 {
					b.Reset()
					b.Put(kbuf, vbuf)
					err = c.Apply(b)
				} else {
					err = c.Put(kbuf, vbuf)
				}
				if err != nil {
					t.Error(err)
					return
				}
				for j := range kbuf {
					kbuf[j] = 0xee
				}
				for j := range vbuf {
					vbuf[j] = 0xee
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			got, err := c.Get([]byte(kf(w, i)))
			if err != nil || string(got) != vf(w, i) {
				t.Fatalf("writer %d key %d over the wire: %q, %v", w, i, got, err)
			}
		}
	}
	// And straight from the engine, through a flush.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	kvs, err := db.Scan([]byte("w"), nil, 0)
	if err != nil || len(kvs) != writers*perWriter {
		t.Fatalf("scan: %d pairs, %v", len(kvs), err)
	}
}
