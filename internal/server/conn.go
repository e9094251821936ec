package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"time"

	"unikv"
	"unikv/internal/protocol"
)

// conn is one connection and what its goroutine reuses between requests.
type conn struct {
	s   *Server
	nc  net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	buf []byte   // body of the frame being served
	w   writer   // commit-queue entry; w.batch borrows from buf and br
	ids []uint32 // request ids answered by the commit in flight
}

// Read and Write are the socket's, tallying wire bytes for Metrics; br
// and bw sit on top of them.
func (c *conn) Read(p []byte) (int, error) {
	n, err := c.nc.Read(p)
	c.s.bytesIn.Add(int64(n))
	return n, err
}

func (c *conn) Write(p []byte) (int, error) {
	n, err := c.nc.Write(p)
	c.s.bytesOut.Add(int64(n))
	return n, err
}

// handleConn serves one connection on the calling goroutine, then
// unregisters it.
func (s *Server) handleConn(nc net.Conn) {
	defer s.wg.Done()
	c := &conn{s: s, nc: nc, w: writer{batch: unikv.NewBatch(), wake: make(chan struct{}, 1)}}
	c.br = bufio.NewReaderSize(c, 32<<10)
	c.bw = bufio.NewWriterSize(c, 32<<10)
	err := c.serve()
	// Not worth a line: a clean close, shutdown, a deadline (idle or write).
	if err != nil && err != io.EOF && !s.closing.Load() && !errors.Is(err, os.ErrDeadlineExceeded) {
		s.opts.Logf("server: %s: %v", nc.RemoteAddr(), err)
	}
	nc.Close()
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
	s.connsActive.Add(-1)
}

// serve is the connection's request loop, run to completion: a frame is
// read, executed (a read) or committed (a write), and its response appended
// to the write buffer before the next frame is looked at — so responses are
// in request order and a GET sees the PUT sent before it, with nothing to
// enforce either. The write buffer is flushed exactly when the read buffer
// holds no further complete frame: a lone request is answered at once, a
// pipelined burst with one write. Nothing is decoded ahead of what has been
// answered, so a client that stops reading is held back by its TCP window.
func (c *conn) serve() error {
	s := c.s
	for {
		if c.buffered(0) == nil {
			if err := c.bw.Flush(); err != nil {
				return err
			}
			if s.opts.IdleTimeout > 0 {
				c.nc.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
			}
		}
		// Close sets a past read deadline on every connection, so a reader
		// parked in ReadFrame fails with a timeout; one that is busy finds
		// the flag here once its current request is answered.
		if s.closing.Load() {
			return c.bw.Flush()
		}
		var err error
		if c.buf, err = protocol.ReadFrame(c.br, c.buf[:0]); err != nil {
			return err
		}
		s.requests.Add(1)
		s.inFlight.Add(1)
		req, err := protocol.DecodeRequest(c.buf)
		switch {
		case err != nil:
			// The frame boundary is intact, so the stream is not
			// desynchronized; answer BadRequest and keep serving.
			s.respErrors.Add(1)
			err = c.respond(protocol.AppendError(c.bw.AvailableBuffer(), req.ID, protocol.StatusBadRequest, err.Error()))
		case isWrite(req.Op):
			err = c.write(&req)
		default:
			err = c.respond(c.read(c.bw.AvailableBuffer(), &req))
		}
		if err != nil {
			return err
		}
	}
}

// buffered returns the body of the frame that starts off bytes into the
// read buffer's unread data if the buffer already holds all of it, else
// nil. The body aliases the read buffer until the next read through c.br.
func (c *conn) buffered(off int) []byte {
	win, _ := c.br.Peek(c.br.Buffered())
	if len(win) < off+4 {
		return nil
	}
	n := binary.LittleEndian.Uint32(win[off:])
	if body := win[off+4:]; uint64(n) <= uint64(len(body)) {
		return body[:n]
	}
	return nil
}

// respond queues one response frame, normally encoded in the write
// buffer's own spare room (AvailableBuffer) and so not copied.
func (c *conn) respond(frame []byte) error {
	if c.s.opts.WriteTimeout > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(c.s.opts.WriteTimeout))
	}
	_, err := c.bw.Write(frame)
	c.s.inFlight.Add(-1)
	return err
}

func isWrite(op protocol.Op) bool {
	return op == protocol.OpPut || op == protocol.OpDelete || op == protocol.OpBatch
}

// read executes a read request and appends its response frame to dst.
func (c *conn) read(dst []byte, req *protocol.Request) []byte {
	s := c.s
	switch req.Op {
	case protocol.OpStats:
		return protocol.AppendOKValue(dst, req.ID, s.statsJSON())
	case protocol.OpGet:
		v, err := s.db.Get(req.Key)
		if err != nil {
			return s.appendStatus(dst, req.ID, err)
		}
		return protocol.AppendOKValue(dst, req.ID, v)
	case protocol.OpScan:
		end := req.End
		if req.NoEnd {
			end = nil
		}
		kvs, err := s.db.Scan(req.Start, end, req.Limit)
		if err != nil {
			return s.appendStatus(dst, req.ID, err)
		}
		pairs := make([]protocol.KV, len(kvs))
		for i, kv := range kvs {
			pairs[i] = protocol.KV{Key: kv.Key, Value: kv.Value}
		}
		return protocol.AppendOKPairs(dst, req.ID, pairs)
	default: // PING
		return protocol.AppendOKEmpty(dst, req.ID)
	}
}

// write commits a write request — and with it every write frame that
// follows it complete in the read buffer, so a pipelined burst of writes
// is one commit — then answers each with that commit's status. The batch
// borrows keys and values where they lie (req's in c.buf, the followers'
// in the read buffer, left unconsumed until the commit has returned): the
// engine's WAL and memtable copies are the only ones made.
func (c *conn) write(req *protocol.Request) error {
	s := c.s
	b := c.w.batch
	b.Reset()
	c.ids = c.ids[:0]
	held := 0
	for {
		s.writeRequests.Add(1)
		c.ids = append(c.ids, req.ID)
		switch req.Op {
		case protocol.OpPut:
			b.PutBorrowed(req.Key, req.Value)
		case protocol.OpDelete:
			b.DeleteBorrowed(req.Key)
		default:
			for _, op := range req.Ops {
				if op.Kind == protocol.BatchDelete {
					b.DeleteBorrowed(op.Key)
				} else {
					b.PutBorrowed(op.Key, op.Value)
				}
			}
		}
		body := c.buffered(held)
		if body == nil || b.Len() >= s.opts.MaxGroupOps {
			break
		}
		next, err := protocol.DecodeRequest(body)
		if err != nil || !isWrite(next.Op) {
			break // the request loop's to answer
		}
		s.requests.Add(1)
		s.inFlight.Add(1)
		held += 4 + len(body)
		*req = next
	}
	err := s.commit(&c.w)
	c.br.Discard(held)
	for _, id := range c.ids {
		if err := c.respond(s.appendStatus(c.bw.AvailableBuffer(), id, err)); err != nil {
			return err
		}
	}
	return nil
}

// appendStatus encodes an error result, counting it.
func (s *Server) appendStatus(buf []byte, id uint32, err error) []byte {
	st := statusOf(err)
	if st == protocol.StatusOK {
		return protocol.AppendOKEmpty(buf, id)
	}
	s.respErrors.Add(1)
	return protocol.AppendError(buf, id, st, err.Error())
}

// statusOf maps engine errors onto wire statuses.
func statusOf(err error) protocol.Status {
	switch {
	case err == nil:
		return protocol.StatusOK
	case errors.Is(err, unikv.ErrNotFound):
		return protocol.StatusNotFound
	case errors.Is(err, unikv.ErrKeyTooLarge):
		return protocol.StatusTooLarge
	case errors.Is(err, unikv.ErrPartitionQuarantined):
		// Checked before StatusDegraded: quarantine is scoped to one
		// partition's key range while the rest of the node keeps serving,
		// so clients should fail the request, not drain the node.
		return protocol.StatusQuarantined
	case errors.Is(err, unikv.ErrDegraded):
		// Distinct from StatusInternal so clients and load balancers can
		// tell "this node rejects writes until reopened" from a one-off
		// failure. Checked before StatusClosed: a degraded DB still serves
		// reads, a closed one serves nothing.
		return protocol.StatusDegraded
	case errors.Is(err, unikv.ErrClosed):
		return protocol.StatusClosed
	default:
		return protocol.StatusInternal
	}
}
