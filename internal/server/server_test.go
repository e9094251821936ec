package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unikv"
	"unikv/internal/protocol"
	"unikv/internal/vfs"
)

// startServer opens a fresh in-memory DB and serves it on a loopback
// listener, cleaning both up with the test.
func startServer(t *testing.T, dbOpts *unikv.Options, opts Options) (*Server, *unikv.DB, string) {
	t.Helper()
	if dbOpts == nil {
		dbOpts = &unikv.Options{FS: vfs.NewMem()}
	}
	db, err := unikv.Open(t.TempDir(), dbOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s := New(db, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return s, db, ln.Addr().String()
}

func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// readResp reads one response frame for op.
func readResp(t *testing.T, c net.Conn, op protocol.Op) protocol.Response {
	t.Helper()
	body, err := protocol.ReadFrame(c, nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	resp, err := protocol.DecodeResponse(op, body)
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	return resp
}

// TestPipelining sends a burst of frames before reading anything, then
// checks every response arrives in request order with the right payload.
func TestPipelining(t *testing.T) {
	_, _, addr := startServer(t, nil, Options{})
	c := dialRaw(t, addr)

	const n = 50
	var wire []byte
	for i := 0; i < n; i++ {
		wire = protocol.AppendPut(wire, uint32(2*i), key(i), val(i))
		wire = protocol.AppendGet(wire, uint32(2*i+1), key(i))
	}
	if _, err := c.Write(wire); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		put := readResp(t, c, protocol.OpPut)
		if put.Status != protocol.StatusOK || put.ID != uint32(2*i) {
			t.Fatalf("put %d: %+v", i, put)
		}
		get := readResp(t, c, protocol.OpGet)
		if get.Status != protocol.StatusOK || get.ID != uint32(2*i+1) {
			t.Fatalf("get %d: %+v", i, get)
		}
		if !bytes.Equal(get.Value, val(i)) {
			t.Fatalf("get %d: value %q, want %q", i, get.Value, val(i))
		}
	}
}

func key(i int) []byte { return []byte{'k', byte(i >> 8), byte(i)} }
func val(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 16) }

// TestMalformedFrameKeepsConnection: a frame that fails to decode gets a
// BadRequest response and the connection keeps serving (framing is still
// aligned), while the error counter ticks.
func TestMalformedFrameKeepsConnection(t *testing.T) {
	s, _, addr := startServer(t, nil, Options{})
	c := dialRaw(t, addr)

	var wire []byte
	wire = protocol.AppendPut(wire, 1, []byte("k"), []byte("v"))
	// Unknown opcode 0xEE with a valid length word.
	wire = append(wire, 6, 0, 0, 0, 0xEE, 9, 9, 9, 9, 9)
	wire = protocol.AppendGet(wire, 3, []byte("k"))
	if _, err := c.Write(wire); err != nil {
		t.Fatal(err)
	}
	if resp := readResp(t, c, protocol.OpPut); resp.Status != protocol.StatusOK {
		t.Fatalf("put: %+v", resp)
	}
	if resp := readResp(t, c, protocol.OpPing); resp.Status != protocol.StatusBadRequest {
		t.Fatalf("malformed: want BadRequest, got %+v", resp)
	}
	if resp := readResp(t, c, protocol.OpGet); resp.Status != protocol.StatusOK || string(resp.Value) != "v" {
		t.Fatalf("get after malformed: %+v", resp)
	}
	if m := s.Metrics(); m.Errors == 0 {
		t.Fatalf("want Errors > 0, got %+v", m)
	}
}

// TestOversizedFrameDropsConnection: announcing a body beyond
// MaxFrameSize must terminate the connection, not allocate.
func TestOversizedFrameDropsConnection(t *testing.T) {
	_, _, addr := startServer(t, nil, Options{})
	c := dialRaw(t, addr)
	hdr := []byte{0xff, 0xff, 0xff, 0xff} // ~4 GiB announced
	if _, err := c.Write(hdr); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(c); err != nil {
		t.Fatalf("want clean close, got %v", err)
	}
}

// TestNotFoundAndTooLarge maps engine errors onto wire statuses.
func TestNotFoundAndTooLarge(t *testing.T) {
	_, _, addr := startServer(t, nil, Options{})
	c := dialRaw(t, addr)

	if _, err := c.Write(protocol.AppendGet(nil, 1, []byte("missing"))); err != nil {
		t.Fatal(err)
	}
	if resp := readResp(t, c, protocol.OpGet); resp.Status != protocol.StatusNotFound {
		t.Fatalf("want NotFound, got %+v", resp)
	}

	huge := make([]byte, 1<<17) // over the 64 KiB key limit
	if _, err := c.Write(protocol.AppendPut(nil, 2, huge, []byte("v"))); err != nil {
		t.Fatal(err)
	}
	if resp := readResp(t, c, protocol.OpPut); resp.Status != protocol.StatusTooLarge {
		t.Fatalf("want TooLarge, got %+v", resp)
	}
}

// TestConnectionLimit: accepts beyond MaxConns get a StatusClosed frame
// and are dropped; existing connections keep working.
func TestConnectionLimit(t *testing.T) {
	s, _, addr := startServer(t, nil, Options{MaxConns: 1})
	keep := dialRaw(t, addr)
	if _, err := keep.Write(protocol.AppendPing(nil, 1)); err != nil {
		t.Fatal(err)
	}
	if resp := readResp(t, keep, protocol.OpPing); resp.Status != protocol.StatusOK {
		t.Fatalf("first conn ping: %+v", resp)
	}

	extra := dialRaw(t, addr)
	extra.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp := readResp(t, extra, protocol.OpPing)
	if resp.Status != protocol.StatusClosed {
		t.Fatalf("want StatusClosed on overflow conn, got %+v", resp)
	}
	if _, err := protocol.ReadFrame(extra, nil); err == nil {
		t.Fatal("overflow conn should be closed after the error frame")
	}
	if m := s.Metrics(); m.ConnsRejected != 1 {
		t.Fatalf("want ConnsRejected=1, got %+v", m)
	}

	// The slot frees up once the first connection goes away.
	keep.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Conns > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	again := dialRaw(t, addr)
	if _, err := again.Write(protocol.AppendPing(nil, 2)); err != nil {
		t.Fatal(err)
	}
	if resp := readResp(t, again, protocol.OpPing); resp.Status != protocol.StatusOK {
		t.Fatalf("replacement conn ping: %+v", resp)
	}
}

// TestIdleTimeout: a silent connection is closed once IdleTimeout passes.
func TestIdleTimeout(t *testing.T) {
	_, _, addr := startServer(t, nil, Options{IdleTimeout: 50 * time.Millisecond})
	c := dialRaw(t, addr)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(c); err != nil {
		t.Fatalf("want idle close, got read error %v", err)
	}
}

// TestStatsOverWireAndHTTP: the STATS opcode and the HTTP handler must
// serve one coherent snapshot — same schema, same counters underneath.
func TestStatsOverWireAndHTTP(t *testing.T) {
	s, _, addr := startServer(t, nil, Options{})
	c := dialRaw(t, addr)

	var wire []byte
	for i := 0; i < 10; i++ {
		wire = protocol.AppendPut(wire, uint32(i), key(i), val(i))
	}
	if _, err := c.Write(wire); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if resp := readResp(t, c, protocol.OpPut); resp.Status != protocol.StatusOK {
			t.Fatalf("put %d: %+v", i, resp)
		}
	}

	if _, err := c.Write(protocol.AppendStats(nil, 99)); err != nil {
		t.Fatal(err)
	}
	resp := readResp(t, c, protocol.OpStats)
	if resp.Status != protocol.StatusOK {
		t.Fatalf("stats: %+v", resp)
	}
	var m Metrics
	if err := m.UnmarshalStats(resp.Stats); err != nil {
		t.Fatalf("stats payload: %v", err)
	}
	if m.Requests < 11 || m.WriteRequests != 10 || m.BytesIn == 0 || m.BytesOut == 0 {
		t.Fatalf("implausible wire metrics: %+v", m)
	}
	if m.Engine.Puts != 10 {
		t.Fatalf("engine puts = %d, want 10", m.Engine.Puts)
	}
	if m.GroupCommits == 0 || m.GroupedOps != 10 {
		t.Fatalf("group commit counters: %+v", m)
	}

	// The HTTP handler reports the same schema over the same counters.
	rec := httptest.NewRecorder()
	s.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var hm Metrics
	if err := json.Unmarshal(rec.Body.Bytes(), &hm); err != nil {
		t.Fatalf("http metrics: %v", err)
	}
	if hm.WriteRequests != m.WriteRequests || hm.Engine.Puts != m.Engine.Puts {
		t.Fatalf("http snapshot disagrees: %+v vs %+v", hm, m)
	}
}

// TestCloseIdempotent: double Close is a no-op, and a post-Close dial is
// refused.
func TestCloseIdempotent(t *testing.T) {
	s, _, addr := startServer(t, nil, Options{})
	// One round trip first, so Serve has definitely begun accepting
	// before Close races it.
	c := dialRaw(t, addr)
	if _, err := c.Write(protocol.AppendPing(nil, 1)); err != nil {
		t.Fatal(err)
	}
	if resp := readResp(t, c, protocol.OpPing); resp.Status != protocol.StatusOK {
		t.Fatalf("ping: %+v", resp)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatal("dial after Close should fail")
	}
}

// TestProgramOrderInOneWrite: writes and reads of one key arriving in a
// single segment are executed in the order sent — each GET sees exactly
// the writes before it — and answered in that order.
func TestProgramOrderInOneWrite(t *testing.T) {
	_, _, addr := startServer(t, nil, Options{})
	c := dialRaw(t, addr)
	k := []byte("k")
	var wire []byte
	wire = protocol.AppendPut(wire, 1, k, []byte("v1"))
	wire = protocol.AppendPut(wire, 2, k, []byte("v2"))
	wire = protocol.AppendGet(wire, 3, k)
	wire = protocol.AppendDelete(wire, 4, k)
	wire = protocol.AppendGet(wire, 5, k)
	wire = protocol.AppendPut(wire, 6, k, []byte("v3"))
	wire = protocol.AppendGet(wire, 7, k)
	if _, err := c.Write(wire); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		op     protocol.Op
		status protocol.Status
		value  string
	}{
		{protocol.OpPut, protocol.StatusOK, ""},
		{protocol.OpPut, protocol.StatusOK, ""},
		{protocol.OpGet, protocol.StatusOK, "v2"},
		{protocol.OpDelete, protocol.StatusOK, ""},
		{protocol.OpGet, protocol.StatusNotFound, ""},
		{protocol.OpPut, protocol.StatusOK, ""},
		{protocol.OpGet, protocol.StatusOK, "v3"},
	}
	for i, w := range want {
		resp := readResp(t, c, w.op)
		if resp.ID != uint32(i+1) || resp.Status != w.status || string(resp.Value) != w.value {
			t.Fatalf("response %d: %+v, want id %d %s %q", i, resp, i+1, w.status, w.value)
		}
	}
}

// TestPipelinedPutsShareCommits: a burst of PUTs on one connection is
// answered in order, and the frames that arrived together were committed
// together — fewer DB.Apply calls than requests, no op lost.
func TestPipelinedPutsShareCommits(t *testing.T) {
	s, db, addr := startServer(t, nil, Options{})
	c := dialRaw(t, addr)
	const n = 64
	var wire []byte
	for i := 0; i < n; i++ {
		wire = protocol.AppendPut(wire, uint32(i), key(i), val(i))
	}
	if _, err := c.Write(wire); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if resp := readResp(t, c, protocol.OpPut); resp.Status != protocol.StatusOK || resp.ID != uint32(i) {
			t.Fatalf("put %d: %+v", i, resp)
		}
	}
	m := s.Metrics()
	if m.WriteRequests != n || m.GroupedOps != n || m.GroupCommits >= n {
		t.Fatalf("%d write requests, %d ops in %d group commits; want %d, %d, < %d",
			m.WriteRequests, m.GroupedOps, m.GroupCommits, n, n, n)
	}
	for i := 0; i < n; i++ {
		if v, err := db.Get(key(i)); err != nil || !bytes.Equal(v, val(i)) {
			t.Fatalf("key %d after the burst: %q, %v", i, v, err)
		}
	}
}

// TestSlowReaderHeldByTCP: a client pipelines far more GETs than the
// socket buffers can hold answers for and reads nothing for a while. The
// server must neither run ahead of it — at no time is more than one
// request decoded and unanswered — nor lose or reorder anything once the
// client drains.
func TestSlowReaderHeldByTCP(t *testing.T) {
	s, db, addr := startServer(t, nil, Options{})
	big := bytes.Repeat([]byte{'x'}, 1024)
	if err := db.Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	c := dialRaw(t, addr)
	const n = 5000
	var wire []byte
	for i := 0; i < n; i++ {
		wire = protocol.AppendGet(wire, uint32(i), []byte("big"))
	}

	var maxInFlight atomic.Int64
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v := s.Metrics().InFlight; v > maxInFlight.Load() {
				maxInFlight.Store(v)
			}
			runtime.Gosched()
		}
	}()
	sent := make(chan error, 1)
	go func() { // the server may stop reading before everything is sent
		_, err := c.Write(wire)
		sent <- err
	}()

	time.Sleep(200 * time.Millisecond)
	for i := 0; i < n; i++ {
		resp := readResp(t, c, protocol.OpGet)
		if resp.Status != protocol.StatusOK || resp.ID != uint32(i) || !bytes.Equal(resp.Value, big) {
			t.Fatalf("get %d: status %s id %d, %d value bytes", i, resp.Status, resp.ID, len(resp.Value))
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	close(stop)
	sampler.Wait()
	if got := maxInFlight.Load(); got > 1 {
		t.Fatalf("InFlight reached %d on one connection; the server decoded ahead of its answers", got)
	}
}

// serverGoroutines counts the goroutines running this package's server
// code (the accept loop and the connection handlers).
func serverGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "internal/server.(*Server).") || strings.Contains(g, "internal/server.(*conn).") {
			n++
		}
	}
	return n
}

// TestOneGoroutinePerConnection: N idle connections cost exactly N
// goroutines beyond the accept loop, before and after they have served
// reads and writes.
func TestOneGoroutinePerConnection(t *testing.T) {
	_, _, addr := startServer(t, nil, Options{})
	const n = 8
	conns := make([]net.Conn, n)
	for i := range conns {
		conns[i] = dialRaw(t, addr)
	}
	roundTrips := func(frame func(id uint32, i int) []byte, op protocol.Op) {
		for i, c := range conns {
			if _, err := c.Write(frame(uint32(i), i)); err != nil {
				t.Fatal(err)
			}
			if resp := readResp(t, c, op); resp.Status != protocol.StatusOK {
				t.Fatalf("%s on conn %d: %+v", op, i, resp)
			}
		}
	}
	// A round trip per connection proves its handler is running.
	roundTrips(func(id uint32, _ int) []byte { return protocol.AppendPing(nil, id) }, protocol.OpPing)
	if got := serverGoroutines(); got != n+1 {
		t.Fatalf("%d server goroutines with %d idle connections, want %d", got, n, n+1)
	}
	roundTrips(func(id uint32, i int) []byte { return protocol.AppendPut(nil, id, key(i), val(i)) }, protocol.OpPut)
	roundTrips(func(id uint32, i int) []byte { return protocol.AppendGet(nil, id, key(i)) }, protocol.OpGet)
	if got := serverGoroutines(); got != n+1 {
		t.Fatalf("%d server goroutines after traffic, want %d", got, n+1)
	}
}

// TestCloseDuringGroupCommit: Close arrives while leaders are inside a
// synced Apply and followers are waiting on them. Whatever was
// acknowledged — to a leader or a follower — must be in the engine, and
// Close returns with nothing in flight.
func TestCloseDuringGroupCommit(t *testing.T) {
	// Real files: the WAL fsync is the window in which followers queue.
	s, db, addr := startServer(t, &unikv.Options{SyncWrites: true}, Options{})
	const writers = 8
	acked := make([]int, writers) // puts acknowledged OK, per writer
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		c := dialRaw(t, addr)
		wg.Add(1)
		go func(g int, c net.Conn) {
			defer wg.Done()
			var frame, body []byte
			for i := 0; ; i++ {
				frame = protocol.AppendPut(frame[:0], uint32(i), []byte(fmt.Sprintf("close:%d:%06d", g, i)), []byte("v"))
				if _, err := c.Write(frame); err != nil {
					return
				}
				var err error
				if body, err = protocol.ReadFrame(c, body); err != nil {
					return // the server let the connection go
				}
				if resp, err := protocol.DecodeResponse(protocol.OpPut, body); err != nil || resp.Status != protocol.StatusOK {
					t.Errorf("writer %d put %d: %+v, %v", g, i, resp, err)
					return
				}
				acked[g] = i + 1
			}
		}(g, c)
	}
	time.Sleep(50 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	m := s.Metrics()
	if m.InFlight != 0 {
		t.Fatalf("InFlight = %d after Close", m.InFlight)
	}
	if m.MaxGroupOps < 2 {
		t.Fatalf("MaxGroupOps = %d: no commit ever had a follower, the test proved nothing", m.MaxGroupOps)
	}
	total := 0
	for g, n := range acked {
		for i := 0; i < n; i++ {
			if _, err := db.Get([]byte(fmt.Sprintf("close:%d:%06d", g, i))); err != nil {
				t.Fatalf("acknowledged write close:%d:%06d lost: %v", g, i, err)
			}
		}
		total += n
	}
	if total == 0 {
		t.Fatal("nothing was acknowledged before Close")
	}
	t.Logf("%d acknowledged writes intact, %d group commits, largest %d", total, m.GroupCommits, m.MaxGroupOps)
}
