package client

import (
	"bytes"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unikv"
	"unikv/internal/protocol"
	"unikv/internal/server"
	"unikv/internal/vfs"
)

func key(i int) []byte { return []byte{'k', byte(i >> 8), byte(i)} }

// flakyServer is a minimal protocol responder whose connections can be
// made to die mid-request: when failRequests > 0, the next request frame
// is read and the connection closed without a reply — the shape of a
// server restart or a dropped TCP session between request and response.
type flakyServer struct {
	ln           net.Listener
	failRequests atomic.Int32
	frames       atomic.Int32 // request frames read, failed or answered
	value        []byte
}

func startFlaky(t *testing.T) *flakyServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &flakyServer{ln: ln, value: []byte("flaky-value")}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serve(nc)
		}
	}()
	return s
}

func (s *flakyServer) serve(nc net.Conn) {
	defer nc.Close()
	var buf []byte
	for {
		var err error
		buf, err = protocol.ReadFrame(nc, buf[:0])
		if err != nil {
			return
		}
		s.frames.Add(1)
		if s.failRequests.Load() > 0 {
			s.failRequests.Add(-1)
			return // die between request and response
		}
		req, err := protocol.DecodeRequest(buf)
		if err != nil {
			return
		}
		var resp []byte
		if req.Op == protocol.OpGet {
			resp = protocol.AppendOKValue(nil, req.ID, s.value)
		} else {
			resp = protocol.AppendOKEmpty(nil, req.ID)
		}
		if _, err := nc.Write(resp); err != nil {
			return
		}
	}
}

// retryClientOpts pins the retry knobs the tests depend on: one pooled
// connection (so a broken one is visibly replaced) and a fast backoff.
func retryClientOpts() *Options {
	return &Options{
		PoolSize:     1,
		MaxRetries:   2,
		RetryBackoff: time.Millisecond,
	}
}

// TestRetryIdempotent drops the connection under a GET and under the
// Dial-time PING; both must transparently succeed on a fresh connection.
func TestRetryIdempotent(t *testing.T) {
	s := startFlaky(t)

	// Dial-time PING survives a dying first connection.
	s.failRequests.Store(1)
	c, err := Dial(s.ln.Addr().String(), retryClientOpts())
	if err != nil {
		t.Fatalf("Dial through a flaky connection: %v", err)
	}
	defer c.Close()

	// GET: first attempt's connection dies mid-request, the retry answers.
	before := s.frames.Load()
	s.failRequests.Store(1)
	v, err := c.Get([]byte("k"))
	if err != nil {
		t.Fatalf("Get through a flaky connection: %v", err)
	}
	if !bytes.Equal(v, s.value) {
		t.Fatalf("Get = %q, want %q", v, s.value)
	}
	if got := s.frames.Load() - before; got != 2 {
		t.Fatalf("server saw %d GET frames, want 2 (original + one retry)", got)
	}
}

// TestRetryExhausted verifies the retry loop is bounded: with every
// attempt's connection dying, the idempotent op fails after
// 1 + MaxRetries attempts instead of spinning.
func TestRetryExhausted(t *testing.T) {
	s := startFlaky(t)
	c, err := Dial(s.ln.Addr().String(), retryClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	before := s.frames.Load()
	s.failRequests.Store(100)
	if _, err := c.Get([]byte("k")); err == nil {
		t.Fatal("Get succeeded with every connection dying")
	}
	if got := s.frames.Load() - before; got != 3 {
		t.Fatalf("server saw %d frames, want 3 (original + MaxRetries)", got)
	}
	s.failRequests.Store(0)
}

// TestWritesNeverRetried is the non-idempotence guard: a PUT whose
// connection dies between request and response must surface the error
// after exactly one attempt — the server may have committed it, and a
// blind re-send could double-apply.
func TestWritesNeverRetried(t *testing.T) {
	s := startFlaky(t)
	c, err := Dial(s.ln.Addr().String(), retryClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, tc := range []struct {
		name string
		op   func() error
	}{
		{"put", func() error { return c.Put([]byte("k"), []byte("v")) }},
		{"delete", func() error { return c.Delete([]byte("k")) }},
		{"batch", func() error {
			b := NewBatch()
			b.Put([]byte("k"), []byte("v"))
			return c.Apply(b)
		}},
	} {
		before := s.frames.Load()
		s.failRequests.Store(1)
		if err := tc.op(); err == nil {
			t.Fatalf("%s: no error from a connection that died mid-request", tc.name)
		}
		if got := s.frames.Load() - before; got != 1 {
			t.Fatalf("%s: server saw %d frames, want exactly 1 (writes must not retry)", tc.name, got)
		}
	}
}

// TestDegradedEndToEnd trips the real engine into degraded read-only mode
// behind a real server and checks the full surface: writes come back as
// ErrDegraded (via the distinct wire status, not a generic failure), reads
// keep serving, and STATS carries the degraded flag and cause.
func TestDegradedEndToEnd(t *testing.T) {
	ffs := vfs.NewFail(vfs.NewMem())
	_, _, addr := startServer(t, &unikv.Options{
		FS:                ffs,
		MemtableSize:      2 << 10,
		UnsortedLimit:     8 << 10,
		MaxLogSize:        8 << 10,
		BackgroundWorkers: 2,
	}, server.Options{})
	c := dialClient(t, addr, nil)

	if err := c.Put([]byte("pre-fault"), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	// Every sstable write now fails: the first background flush exhausts
	// its retries and degrades the engine.
	ffs.ArmPlan(vfs.FailPlan{Fail: -1, Kinds: vfs.OpWrite, Pattern: "*.sst"})
	var writeErr error
	for i := 0; i < 50000; i++ {
		if writeErr = c.Put(key(i), bytes.Repeat([]byte("v"), 64)); writeErr != nil {
			break
		}
	}
	if writeErr == nil {
		t.Fatal("writes never failed under a sticky background fault")
	}
	if !errors.Is(writeErr, unikv.ErrDegraded) {
		t.Fatalf("client write error %v, want to match unikv.ErrDegraded", writeErr)
	}

	// Reads still serve while degraded.
	if v, err := c.Get([]byte("pre-fault")); err != nil || string(v) != "ok" {
		t.Fatalf("Get while degraded: %q, %v", v, err)
	}
	// STATS carries the mode and its cause to remote operators.
	m, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats while degraded: %v", err)
	}
	if !m.Engine.Degraded || m.Engine.DegradedSince == 0 {
		t.Fatalf("STATS not degraded: %+v", m.Engine)
	}
	if !strings.Contains(m.Engine.DegradedCause, "flush") {
		t.Fatalf("DegradedCause=%q, want the failed job named", m.Engine.DegradedCause)
	}
	ffs.Disarm()
}

// TestQuarantinedEndToEnd trips a partition quarantine through the real
// stack: read-time table corruption behind a real server quarantines the
// owning partition, writes come back matching unikv.ErrPartitionQuarantined
// (via the distinct QUARANTINED wire status), the engine never enters
// whole-DB degraded mode, and STATS carries the quarantined-partition count.
func TestQuarantinedEndToEnd(t *testing.T) {
	ffs := vfs.NewFail(vfs.NewMem())
	_, _, addr := startServer(t, &unikv.Options{
		FS:                ffs,
		MemtableSize:      2 << 10,
		UnsortedLimit:     8 << 10,
		MaxLogSize:        8 << 10,
		BackgroundWorkers: 2,
	}, server.Options{})
	c := dialClient(t, addr, nil)

	// Seed until at least one table has been flushed, so reads have
	// on-disk blocks to trip over.
	for i := 0; ; i++ {
		if err := c.Put(key(i%512), bytes.Repeat([]byte("v"), 64)); err != nil {
			t.Fatal(err)
		}
		if i%64 == 0 {
			m, err := c.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if m.Engine.Flushes > 0 {
				break
			}
		}
		if i > 50000 {
			t.Fatal("no flush after 50k puts")
		}
	}

	// Every table read now returns flipped bytes; a foreground read or a
	// background job finds the corruption and quarantines the partition.
	ffs.ArmCorrupt(vfs.CorruptPlan{Pattern: "*.sst", Start: 0, Stride: 64, Count: 1 << 20})
	var writeErr error
	for i := 0; i < 50000 && writeErr == nil; i++ {
		if i%16 == 0 {
			c.Get(key(i % 512)) // drive foreground reads into the bad blocks
		}
		writeErr = c.Put(key(i%512), bytes.Repeat([]byte("w"), 64))
	}
	if writeErr == nil {
		t.Fatal("writes never failed with every table read corrupted")
	}
	if !errors.Is(writeErr, unikv.ErrPartitionQuarantined) {
		t.Fatalf("client write error %v, want to match unikv.ErrPartitionQuarantined", writeErr)
	}

	m, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats while quarantined: %v", err)
	}
	if m.Engine.QuarantinedPartitions == 0 {
		t.Fatalf("STATS reports no quarantined partitions: %+v", m.Engine)
	}
	if m.Engine.Degraded {
		t.Fatalf("file-scoped corruption degraded the whole DB: %q", m.Engine.DegradedCause)
	}
	ffs.DisarmCorrupt()
}

// TestGroupCommitIsolatesQuarantine: one partition of a multi-partition
// store is quarantined (a corrupt table block, found by a foreground
// read). Connections writing into healthy partitions share group commits
// with a connection writing into the quarantined range: the healthy writes
// must all succeed, and the other must always get QUARANTINED — the
// partition's error is its own, not its commit group's.
func TestGroupCommitIsolatesQuarantine(t *testing.T) {
	small := func() *unikv.Options { // TestQuarantinedEndToEnd's store, on real files, splitting early
		return &unikv.Options{
			MemtableSize:       2 << 10,
			UnsortedLimit:      8 << 10,
			MaxLogSize:         8 << 10,
			PartitionSizeLimit: 64 << 10,
			BackgroundWorkers:  2,
		}
	}
	// Seed embedded, settle everything into tables, and damage one block.
	dir := t.TempDir()
	db, err := unikv.Open(dir, small())
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), bytes.Repeat([]byte("v"), 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if p := db.Metrics().Partitions; p < 2 {
		t.Fatalf("seed produced %d partitions, need >= 2", p)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	tables, err := filepath.Glob(filepath.Join(dir, "p*", "*.sst"))
	if err != nil || len(tables) == 0 {
		t.Fatalf("no table files under %s: %v", dir, err)
	}
	data, err := os.ReadFile(tables[0])
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0xff
	if err := os.WriteFile(tables[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	// SyncWrites on real files: the fsync is the window commits share.
	opts := small()
	opts.SyncWrites = true
	s, _, addr := startServerAt(t, dir, opts, server.Options{})
	c := dialClient(t, addr, nil)
	for i := 0; i < n; i++ {
		c.Get(key(i)) // one of these reads the bad block
	}
	m, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if m.Engine.QuarantinedPartitions != 1 || m.Engine.Degraded {
		t.Fatalf("want exactly one quarantined partition, got %d of %d (degraded=%v)",
			m.Engine.QuarantinedPartitions, m.Engine.Partitions, m.Engine.Degraded)
	}
	// A lone put shares no commit, so its status is its partition's.
	var sick, healthy [][]byte
	for i := 0; i < n; i++ {
		switch err := c.Put(key(i), []byte("probe")); {
		case err == nil:
			healthy = append(healthy, key(i))
		case errors.Is(err, unikv.ErrPartitionQuarantined):
			sick = append(sick, key(i))
		default:
			t.Fatalf("probe put %d: %v", i, err)
		}
	}
	if len(sick) == 0 || len(healthy) == 0 {
		t.Fatalf("probe found %d quarantined and %d healthy keys, need both", len(sick), len(healthy))
	}

	var done atomic.Bool
	var bad sync.WaitGroup
	bad.Add(1)
	go func(c *Client) {
		defer bad.Done()
		for i := 0; !done.Load(); i++ {
			if err := c.Put(sick[i%len(sick)], []byte("w")); !errors.Is(err, unikv.ErrPartitionQuarantined) {
				t.Errorf("put into the quarantined range: %v, want ErrPartitionQuarantined", err)
				return
			}
		}
	}(dialClient(t, addr, &Options{PoolSize: 1}))
	const goodClients, putsPerClient = 4, 300
	var failed atomic.Int64
	var good sync.WaitGroup
	for g := 0; g < goodClients; g++ {
		good.Add(1)
		go func(g int, c *Client) {
			defer good.Done()
			for i := 0; i < putsPerClient; i++ {
				k := healthy[(g*putsPerClient+i)%len(healthy)]
				if err := c.Put(k, []byte("w")); err != nil && failed.Add(1) == 1 {
					t.Errorf("put into a healthy partition: %v", err)
				}
			}
		}(g, dialClient(t, addr, &Options{PoolSize: 1}))
	}
	good.Wait()
	done.Store(true)
	bad.Wait()
	if f := failed.Load(); f != 0 {
		t.Fatalf("%d of %d writes to healthy partitions failed beside a quarantined one", f, goodClients*putsPerClient)
	}
	if got := s.Metrics().MaxGroupOps; got < 2 {
		t.Fatalf("MaxGroupOps = %d: no commit was ever shared, the test proved nothing", got)
	}
}
