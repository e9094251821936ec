// Package server is UniKV's network front end: a TCP server that speaks
// the internal/protocol wire format and serves a *unikv.DB to many
// concurrent clients.
//
// Each accepted connection is served by one goroutine, run to completion:
// it reads a frame, executes it, appends the response to the connection's
// write buffer and flushes when the client has nothing more queued, so
// responses are in request order and a pipelined burst costs one write.
// Reads execute inline. A write (PUT, DELETE, BATCH) is committed by the
// connection's own goroutine through a leader/follower group commit:
// writers from all connections queue up, the one at the head applies
// everything queued behind it with a single DB.Apply and hands the others
// their result — amortizing WAL appends and fsyncs under concurrency, while
// a lone writer pays no hand-off. The only goroutines are the accept loop
// and one per connection.
//
// The server enforces a connection limit, optional idle/write deadlines,
// a frame size cap (protocol.MaxFrameSize), and shuts down gracefully:
// Close stops accepting, wakes idle connections, and lets every other
// finish, answer and flush the request it is serving.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"unikv"
	"unikv/internal/protocol"
)

// Options tunes the server. The zero value selects the defaults.
type Options struct {
	// MaxConns caps simultaneously served connections; excess accepts are
	// sent a StatusClosed error frame and dropped. Default 1024.
	MaxConns int
	// IdleTimeout closes a connection that sends no request for this
	// long. 0 means no idle deadline.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write. 0 means no deadline.
	WriteTimeout time.Duration
	// MaxGroupOps caps operations coalesced into one group commit.
	// Default 4096.
	MaxGroupOps int
	// Logf receives connection-level error lines. nil discards them.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.MaxConns <= 0 {
		o.MaxConns = 1024
	}
	if o.MaxGroupOps <= 0 {
		o.MaxGroupOps = 4096
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Metrics is one coherent snapshot of the serving layer plus the engine
// beneath it — the STATS opcode and the expvar endpoint both publish
// exactly this struct.
type Metrics struct {
	Engine unikv.Metrics

	// Connections.
	Conns         int64 // currently served
	ConnsTotal    int64 // accepted since start
	ConnsRejected int64 // dropped at the MaxConns limit

	// Requests.
	Requests      int64 // decoded request frames
	WriteRequests int64 // PUT + DELETE + BATCH among them
	InFlight      int64 // decoded but not yet answered
	Errors        int64 // non-OK responses sent

	// Wire traffic, counting frame headers and bodies.
	BytesIn  int64
	BytesOut int64

	// Group commit. GroupCommits < WriteRequests means coalescing is
	// happening: several concurrent write requests shared one DB.Apply.
	GroupCommits int64 // DB.Apply calls issued by commit leaders
	GroupedOps   int64 // engine operations across those calls
	MaxGroupOps  int64 // largest single group commit observed
}

// UnmarshalStats parses the JSON document a STATS response carries back
// into the struct, so clients and the server agree on one schema.
func (m *Metrics) UnmarshalStats(b []byte) error { return json.Unmarshal(b, m) }

// Server serves a unikv.DB over TCP. Create with New, start with Serve,
// stop with Close. The Server does not own the DB and never closes it.
type Server struct {
	db   *unikv.DB
	opts Options

	ln      net.Listener
	closing atomic.Bool
	wg      sync.WaitGroup // accept loop + connection handlers

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	commitMu sync.Mutex
	queue    []*writer    // waiting to commit; the head leads (commit.go)
	merged   *unikv.Batch // the leader's scratch

	// Counters behind Metrics.
	connsActive   atomic.Int64
	connsTotal    atomic.Int64
	connsRejected atomic.Int64
	requests      atomic.Int64
	writeRequests atomic.Int64
	inFlight      atomic.Int64
	respErrors    atomic.Int64
	bytesIn       atomic.Int64
	bytesOut      atomic.Int64
	groupCommits  atomic.Int64
	groupedOps    atomic.Int64
	maxGroup      atomic.Int64
}

// New wraps db in a server. Call Serve to start accepting.
func New(db *unikv.DB, opts Options) *Server {
	return &Server{
		db:     db,
		opts:   opts.withDefaults(),
		conns:  make(map[net.Conn]struct{}),
		merged: unikv.NewBatch(),
	}
}

// Serve accepts connections on ln until Close. It returns nil after a
// clean shutdown, or the first accept error otherwise. Most callers run
// it in a goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.ln != nil {
		s.mu.Unlock()
		return errors.New("server: Serve called twice")
	}
	s.ln = ln
	s.mu.Unlock()
	if s.closing.Load() { // Close ran before the listener registered
		ln.Close()
		return nil
	}

	for {
		c, err := ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return nil
			}
			return err
		}
		s.connsTotal.Add(1)
		if s.connsActive.Add(1) > int64(s.opts.MaxConns) || s.closing.Load() {
			s.connsActive.Add(-1)
			s.connsRejected.Add(1)
			// Best-effort courtesy frame; the peer may have already gone.
			c.SetWriteDeadline(time.Now().Add(time.Second))
			c.Write(protocol.AppendError(nil, 0, protocol.StatusClosed, "connection limit"))
			c.Close()
			continue
		}
		s.mu.Lock()
		s.conns[c] = struct{}{}
		// A connection registering after Close's deadline sweep would
		// otherwise park in ReadFrame forever; closing is set before the
		// sweep takes the lock, so checking it here closes the race.
		if s.closing.Load() {
			c.SetReadDeadline(time.Now())
		}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(c)
	}
}

// ListenAndServe listens on addr and calls Serve.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the listener address once Serve has been called, else nil.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close drains and stops the server: it stops accepting, wakes every
// connection waiting for a request, and returns once each has answered
// the request it was serving — a write is acknowledged only after its
// commit returned, leader or follower, so every acknowledged write is
// durable per the DB's WAL policy. The DB stays open.
func (s *Server) Close() error {
	if s.closing.Swap(true) {
		return nil // already closed
	}
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	// Wake readers parked in ReadFrame; in-flight requests still finish
	// because the write side keeps a generous drain deadline (it exists
	// only so a peer that stopped reading cannot hang shutdown forever).
	now := time.Now()
	for c := range s.conns {
		c.SetReadDeadline(now)
		c.SetWriteDeadline(now.Add(5 * time.Second))
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// Metrics snapshots the serving layer and the engine together.
func (s *Server) Metrics() Metrics {
	return Metrics{
		Engine:        s.db.Metrics(),
		Conns:         s.connsActive.Load(),
		ConnsTotal:    s.connsTotal.Load(),
		ConnsRejected: s.connsRejected.Load(),
		Requests:      s.requests.Load(),
		WriteRequests: s.writeRequests.Load(),
		InFlight:      s.inFlight.Load(),
		Errors:        s.respErrors.Load(),
		BytesIn:       s.bytesIn.Load(),
		BytesOut:      s.bytesOut.Load(),
		GroupCommits:  s.groupCommits.Load(),
		GroupedOps:    s.groupedOps.Load(),
		MaxGroupOps:   s.maxGroup.Load(),
	}
}

// statsJSON renders Metrics for the STATS opcode and the expvar endpoint.
func (s *Server) statsJSON() []byte {
	b, err := json.Marshal(s.Metrics())
	if err != nil { // a plain struct of integers cannot fail to marshal
		b = []byte(fmt.Sprintf(`{"error":%q}`, err))
	}
	return b
}
