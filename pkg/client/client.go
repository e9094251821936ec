// Package client is the Go client for a unikv-server: a connection-pooled
// Client whose methods mirror the embedded unikv.DB API (Get, Put,
// Delete, Scan, Apply, Metrics-as-Stats) over the internal/protocol wire
// format.
//
//	c, err := client.Dial("localhost:4090", nil)
//	if err != nil { ... }
//	defer c.Close()
//
//	c.Put([]byte("user:42"), []byte("alice"))
//	v, err := c.Get([]byte("user:42"))     // unikv.ErrNotFound when absent
//	kvs, err := c.Scan([]byte("user:"), []byte("user;"), 0)
//
// The Client is safe for concurrent use: up to PoolSize connections are
// dialed lazily and callers beyond that block until one frees up. Each
// method issues one request/response exchange; the server coalesces
// concurrent writes into group commits, so many goroutines calling Put
// simultaneously is the intended high-throughput shape.
//
// Every exchange runs under a per-operation deadline (RequestTimeout),
// and idempotent operations (Get, Scan, Stats, Ping) are transparently
// retried with backoff after transient connection errors; writes (Put,
// Delete, Apply) never are, because a broken connection leaves their
// outcome unknown. See Options.MaxRetries.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"unikv"
	"unikv/internal/protocol"
	"unikv/internal/server"
)

// ErrClientClosed is returned by methods called after Close.
var ErrClientClosed = errors.New("client: closed")

// Options tunes the client. The zero value (or nil) selects defaults.
type Options struct {
	// PoolSize caps concurrently open connections. Default 4.
	PoolSize int
	// DialTimeout bounds each connection attempt. Default 5s.
	DialTimeout time.Duration
	// RequestTimeout bounds one request/response exchange on the wire —
	// the per-operation deadline (each retry attempt gets a fresh one).
	// Default 10s; negative disables the deadline.
	RequestTimeout time.Duration
	// MaxRetries caps automatic retries of idempotent operations (GET,
	// SCAN, STATS, PING) after a transient connection error: a dial
	// failure, or an I/O/framing error that broke the connection (the
	// retry runs on a fresh one). PUT, DELETE, and BATCH are never retried
	// automatically — a broken connection leaves their outcome unknown,
	// and blind re-execution would double-apply against a concurrent
	// writer. Default 2; negative disables retries.
	MaxRetries int
	// RetryBackoff is the first retry's delay; it doubles per retry with
	// jitter. Default 20ms.
	RetryBackoff time.Duration
}

func (o *Options) withDefaults() Options {
	var v Options
	if o != nil {
		v = *o
	}
	if v.PoolSize <= 0 {
		v.PoolSize = 4
	}
	if v.DialTimeout <= 0 {
		v.DialTimeout = 5 * time.Second
	}
	if v.RequestTimeout == 0 {
		v.RequestTimeout = 10 * time.Second
	} else if v.RequestTimeout < 0 {
		v.RequestTimeout = 0
	}
	if v.MaxRetries == 0 {
		v.MaxRetries = 2
	} else if v.MaxRetries < 0 {
		v.MaxRetries = 0
	}
	if v.RetryBackoff <= 0 {
		v.RetryBackoff = 20 * time.Millisecond
	}
	return v
}

// Client is a pooled connection to one unikv-server.
type Client struct {
	addr string
	opts Options

	idle   chan *wireConn
	sem    chan struct{} // counts live connections
	closed chan struct{}
}

// wireConn is one protocol connection; owned by a single request at a time.
type wireConn struct {
	nc     net.Conn
	br     *bufio.Reader // a response's header and body arrive in one read
	buf    []byte        // frame scratch, reused across requests
	nextID uint32
}

// Dial creates a Client for addr and verifies connectivity with a PING.
func Dial(addr string, opts *Options) (*Client, error) {
	c := &Client{
		addr:   addr,
		opts:   opts.withDefaults(),
		closed: make(chan struct{}),
	}
	c.idle = make(chan *wireConn, c.opts.PoolSize)
	c.sem = make(chan struct{}, c.opts.PoolSize)
	if err := c.Ping(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// acquire returns an idle connection, dialing a new one when under the
// pool cap, and blocking otherwise until a connection frees up.
func (c *Client) acquire() (*wireConn, error) {
	select {
	case <-c.closed:
		return nil, ErrClientClosed
	case w := <-c.idle:
		return w, nil
	default:
	}
	select {
	case <-c.closed:
		return nil, ErrClientClosed
	case w := <-c.idle:
		return w, nil
	case c.sem <- struct{}{}:
		nc, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
		if err != nil {
			<-c.sem
			return nil, err
		}
		return &wireConn{nc: nc, br: bufio.NewReader(nc)}, nil
	}
}

// release returns a healthy connection to the pool; a connection that saw
// an I/O or framing error is closed instead (its stream may be
// desynchronized).
func (c *Client) release(w *wireConn, broken bool) {
	select {
	case <-c.closed:
		broken = true
	default:
	}
	if broken {
		w.nc.Close()
		<-c.sem
		return
	}
	c.idle <- w // cap(idle) == cap(sem): never blocks
}

// Close releases the pool. In-flight requests finish on their own
// connections, which are closed on release.
func (c *Client) Close() error {
	select {
	case <-c.closed:
		return nil
	default:
	}
	close(c.closed)
	for {
		select {
		case w := <-c.idle:
			w.nc.Close()
			<-c.sem
		default:
			return nil
		}
	}
}

// exchange sends the frame already staged in w.buf and reads the response
// body for op. The returned response aliases w.buf; callers copy out what
// they keep before releasing the connection.
func (c *Client) exchange(w *wireConn, op protocol.Op, id uint32) (protocol.Response, error) {
	if c.opts.RequestTimeout > 0 {
		w.nc.SetDeadline(time.Now().Add(c.opts.RequestTimeout))
	}
	if _, err := w.nc.Write(w.buf); err != nil {
		return protocol.Response{}, fmt.Errorf("client: write %s: %w", op, err)
	}
	var err error
	w.buf, err = protocol.ReadFrame(w.br, w.buf[:0])
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // mid-request close is never clean
		}
		return protocol.Response{}, fmt.Errorf("client: read %s: %w", op, err)
	}
	resp, err := protocol.DecodeResponse(op, w.buf)
	if err != nil {
		return protocol.Response{}, fmt.Errorf("client: %s response: %w", op, err)
	}
	if resp.ID != id {
		return protocol.Response{}, fmt.Errorf("client: %s response id %d, want %d (stream desynchronized)", op, resp.ID, id)
	}
	return resp, nil
}

// attempt runs one pooled request/response round trip. build appends the
// request frame for the allocated id; handle consumes the response while
// the connection is still held (so it may alias the buffer). transport
// reports whether the failure happened below the protocol — a dial error
// or a broken connection — i.e. whether a retry on a fresh connection
// could succeed.
func (c *Client) attempt(op protocol.Op, build func(buf []byte, id uint32) []byte, handle func(protocol.Response) error) (transport bool, err error) {
	w, err := c.acquire()
	if err != nil {
		return !errors.Is(err, ErrClientClosed), err
	}
	w.nextID++
	id := w.nextID
	w.buf = build(w.buf[:0], id)
	resp, err := c.exchange(w, op, id)
	if err != nil {
		c.release(w, true)
		return true, err
	}
	if err := statusErr(resp); err != nil {
		c.release(w, false)
		return false, err
	}
	err = nil
	if handle != nil {
		err = handle(resp)
	}
	c.release(w, false)
	return false, err
}

// do runs one round trip with no retry — the write path (PUT, DELETE,
// BATCH). A transport error leaves the operation's outcome unknown (the
// server may have committed before the connection died), so re-sending
// could double-apply; the caller decides whether the op is safe to repeat.
func (c *Client) do(op protocol.Op, build func(buf []byte, id uint32) []byte, handle func(protocol.Response) error) error {
	_, err := c.attempt(op, build, handle)
	return err
}

// doIdempotent is do plus bounded retry with exponential backoff and
// jitter after transport errors, safe because the operation (GET, SCAN,
// STATS, PING) does not mutate server state. Each attempt runs on a fresh
// connection with a fresh RequestTimeout deadline; protocol-level errors
// (NotFound, Degraded, ...) are returned immediately.
func (c *Client) doIdempotent(op protocol.Op, build func(buf []byte, id uint32) []byte, handle func(protocol.Response) error) error {
	delay := c.opts.RetryBackoff
	for attempt := 0; ; attempt++ {
		transport, err := c.attempt(op, build, handle)
		if err == nil || !transport || attempt >= c.opts.MaxRetries {
			return err
		}
		d := delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1))
		select {
		case <-c.closed:
			return err
		case <-time.After(d):
		}
		delay *= 2
	}
}

// statusErr maps wire statuses back onto the unikv error surface.
func statusErr(resp protocol.Response) error {
	switch resp.Status {
	case protocol.StatusOK:
		return nil
	case protocol.StatusNotFound:
		return unikv.ErrNotFound
	case protocol.StatusTooLarge:
		return unikv.ErrKeyTooLarge
	case protocol.StatusClosed:
		return unikv.ErrClosed
	case protocol.StatusDegraded:
		return fmt.Errorf("%w: %s", unikv.ErrDegraded, resp.Msg)
	case protocol.StatusQuarantined:
		return fmt.Errorf("%w: %s", unikv.ErrPartitionQuarantined, resp.Msg)
	default:
		return fmt.Errorf("client: server error %s: %s", resp.Status, resp.Msg)
	}
}

// Ping round-trips an empty frame, verifying the server is reachable.
func (c *Client) Ping() error {
	return c.doIdempotent(protocol.OpPing, protocol.AppendPing, nil)
}

// Get returns the value stored for key, or unikv.ErrNotFound.
func (c *Client) Get(key []byte) ([]byte, error) {
	var v []byte
	err := c.doIdempotent(protocol.OpGet,
		func(buf []byte, id uint32) []byte { return protocol.AppendGet(buf, id, key) },
		func(resp protocol.Response) error {
			v = append([]byte(nil), resp.Value...)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return v, nil
}

// Put inserts or overwrites key with value.
func (c *Client) Put(key, value []byte) error {
	return c.do(protocol.OpPut,
		func(buf []byte, id uint32) []byte { return protocol.AppendPut(buf, id, key, value) },
		nil)
}

// Delete removes key. Deleting an absent key is not an error.
func (c *Client) Delete(key []byte) error {
	return c.do(protocol.OpDelete,
		func(buf []byte, id uint32) []byte { return protocol.AppendDelete(buf, id, key) },
		nil)
}

// Scan returns up to limit pairs with start <= key < end in key order,
// mirroring unikv.DB.Scan: a nil end means "no upper bound", limit <= 0
// means "no count bound".
func (c *Client) Scan(start, end []byte, limit int) ([]unikv.KV, error) {
	var kvs []unikv.KV
	err := c.doIdempotent(protocol.OpScan,
		func(buf []byte, id uint32) []byte {
			return protocol.AppendScan(buf, id, start, end, end == nil, limit)
		},
		func(resp protocol.Response) error {
			kvs = copyPairs(resp.Pairs)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return kvs, nil
}

// copyPairs copies a SCAN response's pairs out of the connection's buffer
// into one region, as the embedded Scan returns them (see unikv.KV): the
// result slice and the region are its only allocations, whatever the pair
// count. Each slice's capacity ends where it does, so appending to one
// reallocates instead of running into a neighbour.
func copyPairs(pairs []protocol.KV) []unikv.KV {
	n := 0
	for _, p := range pairs {
		n += len(p.Key) + len(p.Value)
	}
	region := make([]byte, 0, n)
	kvs := make([]unikv.KV, len(pairs))
	for i, p := range pairs {
		k := len(region)
		region = append(append(region, p.Key...), p.Value...)
		v := k + len(p.Key)
		kvs[i] = unikv.KV{Key: region[k:v:v], Value: region[v:len(region):len(region)]}
	}
	return kvs
}

// Batch collects writes for Client.Apply. It mirrors unikv.Batch; the
// whole batch is committed atomically within each partition on the
// server, riding the same group-commit path as concurrent Puts.
type Batch struct {
	ops []protocol.BatchOp
}

// NewBatch returns an empty write batch.
func NewBatch() *Batch { return &Batch{} }

// Put queues an insert/overwrite. Key and value are copied.
func (b *Batch) Put(key, value []byte) {
	b.ops = append(b.ops, protocol.BatchOp{
		Kind:  protocol.BatchPut,
		Key:   append([]byte(nil), key...),
		Value: append([]byte(nil), value...),
	})
}

// Delete queues a tombstone. The key is copied.
func (b *Batch) Delete(key []byte) {
	b.ops = append(b.ops, protocol.BatchOp{
		Kind: protocol.BatchDelete,
		Key:  append([]byte(nil), key...),
	})
}

// Len returns the number of queued operations.
func (b *Batch) Len() int { return len(b.ops) }

// Reset empties the batch for reuse.
func (b *Batch) Reset() { b.ops = b.ops[:0] }

// Apply sends the batch as one BATCH request.
func (c *Client) Apply(b *Batch) error {
	return c.do(protocol.OpBatch,
		func(buf []byte, id uint32) []byte { return protocol.AppendBatch(buf, id, b.ops) },
		nil)
}

// Stats fetches one coherent snapshot of the server's serving-layer
// counters and the engine metrics beneath them.
func (c *Client) Stats() (server.Metrics, error) {
	var m server.Metrics
	err := c.doIdempotent(protocol.OpStats, protocol.AppendStats,
		func(resp protocol.Response) error { return m.UnmarshalStats(resp.Stats) })
	return m, err
}
