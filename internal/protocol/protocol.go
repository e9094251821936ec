// Package protocol defines UniKV's binary wire protocol: a small
// length-prefixed framing with fixed little-endian integers, one opcode
// per engine operation, and a status byte on every response.
//
// # Framing
//
// Every message — request or response — is one frame:
//
//	uint32  length   // byte length of everything after this field
//	<body>           // length bytes
//
// A request body is:
//
//	uint8   opcode   // OpGet, OpPut, ...
//	uint32  id       // echoed verbatim in the response
//	<payload>        // opcode-specific, may be empty
//
// A response body is:
//
//	uint8   status   // StatusOK or an error status
//	uint32  id       // copied from the request
//	<payload>        // opcode-specific on StatusOK, UTF-8 message on error
//
// Responses are delivered in request order on a connection, so the id is
// redundant for a well-behaved peer; it exists so clients can cheaply
// detect desynchronization and for debugging captures.
//
// # Request payloads
//
//	PING    (empty)
//	GET     key
//	DELETE  key
//	PUT     uint32 keyLen | key | value          (value runs to frame end)
//	SCAN    uint32 startLen | start | uint32 endLen | end | uint32 limit
//	        endLen == NoBound means "no upper bound" (end absent)
//	BATCH   uint32 count | count × op, each op:
//	        uint8 kind (0 put, 1 delete) | uint32 keyLen | key |
//	        uint32 valLen | value        (valLen always 0 for deletes)
//	STATS   (empty)
//
// # Response payloads (StatusOK)
//
//	PING/PUT/DELETE/BATCH  (empty)
//	GET                    value
//	SCAN                   uint32 count | count × (uint32 keyLen | key |
//	                       uint32 valLen | value)
//	STATS                  JSON document (server-defined schema)
//
// All multi-byte integers are little-endian. Frames are capped at
// MaxFrameSize; a peer announcing a larger frame is protocol-invalid and
// the connection should be dropped.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Op identifies a request operation.
type Op uint8

// Opcodes. The zero value is intentionally invalid so an all-zero frame
// never decodes as a real request.
const (
	opInvalid Op = iota
	OpPing
	OpGet
	OpPut
	OpDelete
	OpScan
	OpBatch
	OpStats
	opMax
)

// String names the opcode for logs and errors.
func (o Op) String() string {
	switch o {
	case OpPing:
		return "PING"
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpDelete:
		return "DELETE"
	case OpScan:
		return "SCAN"
	case OpBatch:
		return "BATCH"
	case OpStats:
		return "STATS"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Status is the first byte of every response body.
type Status uint8

// Response statuses. StatusOK carries an opcode-specific payload; every
// other status carries a human-readable message.
const (
	StatusOK Status = iota
	StatusNotFound
	StatusBadRequest // malformed frame or argument the engine rejected
	StatusTooLarge   // key/value/frame over the protocol or engine limit
	StatusClosed     // server is shutting down
	StatusInternal   // unexpected engine failure
	// StatusDegraded: the engine is in degraded read-only mode (a
	// background job failed terminally); writes are rejected until the
	// operator reopens the database, reads keep serving. Load balancers
	// should drain writes from a node answering with this status.
	StatusDegraded
	// StatusQuarantined: the key's partition is quarantined after
	// corruption was detected in it (by a scrub or a foreground read).
	// Only that key range is affected — other partitions keep serving
	// reads and writes, so this is a per-request rejection, not a node
	// drain signal. Run unikv-ctl repair to recover the partition.
	StatusQuarantined
)

// String names the status for logs and client-side errors.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusBadRequest:
		return "BAD_REQUEST"
	case StatusTooLarge:
		return "TOO_LARGE"
	case StatusClosed:
		return "CLOSED"
	case StatusInternal:
		return "INTERNAL"
	case StatusDegraded:
		return "DEGRADED"
	case StatusQuarantined:
		return "QUARANTINED"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Batch op kinds (wire values of BATCH entries).
const (
	BatchPut    uint8 = 0
	BatchDelete uint8 = 1
)

// Limits. MaxFrameSize bounds a whole frame body so a hostile peer cannot
// make the server allocate unbounded memory from one length word.
const (
	MaxFrameSize = 32 << 20 // 32 MiB
	// NoBound as an endLen marks a SCAN without an upper bound.
	NoBound = math.MaxUint32
	// NoLimit as a SCAN limit means "no count bound".
	NoLimit = math.MaxUint32
)

// ErrFrameTooLarge is returned when a frame header announces a body
// larger than MaxFrameSize.
var ErrFrameTooLarge = errors.New("protocol: frame exceeds MaxFrameSize")

// ErrMalformed is wrapped by all decode errors caused by frame contents
// (as opposed to I/O failures reading the frame).
var ErrMalformed = errors.New("protocol: malformed frame")

func malformedf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
}

// BatchOp is one operation of a BATCH request.
type BatchOp struct {
	Kind  uint8 // BatchPut or BatchDelete
	Key   []byte
	Value []byte // nil for deletes
}

// Request is a decoded request frame. Fields are valid per the opcode;
// byte slices alias the decode buffer and must be copied to outlive it.
type Request struct {
	Op    Op
	ID    uint32
	Key   []byte // GET, PUT, DELETE
	Value []byte // PUT
	Start []byte // SCAN
	End   []byte // SCAN; nil means no upper bound
	NoEnd bool   // SCAN: true when End is absent (distinguishes nil from empty)
	Limit int    // SCAN; <= 0 means no count bound
	Ops   []BatchOp
}

// KV is one pair of a SCAN response.
type KV struct {
	Key   []byte
	Value []byte
}

// Response is a decoded response frame. Value/Pairs/Stats are valid per
// the request opcode; Msg is set for non-OK statuses.
type Response struct {
	Status Status
	ID     uint32
	Value  []byte // GET
	Pairs  []KV   // SCAN
	Stats  []byte // STATS (JSON)
	Msg    string // non-OK statuses
}

// --------------------------------------------------------------------------
// Encoding. All Append* functions append a complete frame to dst and
// return the extended slice, so callers can reuse one buffer per
// connection without allocation.

func appendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

// beginFrame reserves the length word, returning its offset.
func beginFrame(dst []byte) ([]byte, int) {
	off := len(dst)
	return append(dst, 0, 0, 0, 0), off
}

// EndFrame closes the frame begun at off (by BeginOK, or any of this
// package's encoders): it sets the reserved length word to the bytes
// appended since.
func EndFrame(dst []byte, off int) []byte {
	binary.LittleEndian.PutUint32(dst[off:], uint32(len(dst)-off-4))
	return dst
}

func appendReqHeader(dst []byte, op Op, id uint32) []byte {
	dst = append(dst, byte(op))
	return appendU32(dst, id)
}

// AppendPing appends a PING request frame.
func AppendPing(dst []byte, id uint32) []byte {
	dst, off := beginFrame(dst)
	dst = appendReqHeader(dst, OpPing, id)
	return EndFrame(dst, off)
}

// AppendStats appends a STATS request frame.
func AppendStats(dst []byte, id uint32) []byte {
	dst, off := beginFrame(dst)
	dst = appendReqHeader(dst, OpStats, id)
	return EndFrame(dst, off)
}

// AppendGet appends a GET request frame.
func AppendGet(dst []byte, id uint32, key []byte) []byte {
	dst, off := beginFrame(dst)
	dst = appendReqHeader(dst, OpGet, id)
	dst = append(dst, key...)
	return EndFrame(dst, off)
}

// AppendDelete appends a DELETE request frame.
func AppendDelete(dst []byte, id uint32, key []byte) []byte {
	dst, off := beginFrame(dst)
	dst = appendReqHeader(dst, OpDelete, id)
	dst = append(dst, key...)
	return EndFrame(dst, off)
}

// AppendPut appends a PUT request frame.
func AppendPut(dst []byte, id uint32, key, value []byte) []byte {
	dst, off := beginFrame(dst)
	dst = appendReqHeader(dst, OpPut, id)
	dst = appendU32(dst, uint32(len(key)))
	dst = append(dst, key...)
	dst = append(dst, value...)
	return EndFrame(dst, off)
}

// AppendScan appends a SCAN request frame. A nil end (with noEnd true)
// scans to the end of the keyspace; limit <= 0 means no count bound.
func AppendScan(dst []byte, id uint32, start, end []byte, noEnd bool, limit int) []byte {
	dst, off := beginFrame(dst)
	dst = appendReqHeader(dst, OpScan, id)
	dst = appendU32(dst, uint32(len(start)))
	dst = append(dst, start...)
	if noEnd {
		dst = appendU32(dst, NoBound)
	} else {
		dst = appendU32(dst, uint32(len(end)))
		dst = append(dst, end...)
	}
	if limit <= 0 {
		dst = appendU32(dst, NoLimit)
	} else {
		dst = appendU32(dst, uint32(limit))
	}
	return EndFrame(dst, off)
}

// AppendBatch appends a BATCH request frame.
func AppendBatch(dst []byte, id uint32, ops []BatchOp) []byte {
	dst, off := beginFrame(dst)
	dst = appendReqHeader(dst, OpBatch, id)
	dst = appendU32(dst, uint32(len(ops)))
	for _, op := range ops {
		dst = append(dst, op.Kind)
		dst = appendU32(dst, uint32(len(op.Key)))
		dst = append(dst, op.Key...)
		if op.Kind == BatchDelete {
			dst = appendU32(dst, 0)
			continue
		}
		dst = appendU32(dst, uint32(len(op.Value)))
		dst = append(dst, op.Value...)
	}
	return EndFrame(dst, off)
}

// AppendOKEmpty appends an empty-payload StatusOK response (PING, PUT,
// DELETE, BATCH).
func AppendOKEmpty(dst []byte, id uint32) []byte {
	dst, off := BeginOK(dst, id)
	return EndFrame(dst, off)
}

// BeginOK opens a StatusOK response frame for id on dst — its length word,
// still unset, the status and the id — and returns the frame's offset in
// dst. The caller appends the payload in place and closes the frame with
// EndFrame; to answer with another frame instead, it truncates dst back
// to the offset. A server GET appends the engine's value this way, with
// no buffer between the store and the frame.
func BeginOK(dst []byte, id uint32) ([]byte, int) {
	dst, off := beginFrame(dst)
	dst = append(dst, byte(StatusOK))
	return appendU32(dst, id), off
}

// AppendOKValue appends a StatusOK response carrying one opaque payload
// (GET values, STATS documents).
func AppendOKValue(dst []byte, id uint32, payload []byte) []byte {
	dst, off := BeginOK(dst, id)
	dst = append(dst, payload...)
	return EndFrame(dst, off)
}

// AppendOKPairs appends a StatusOK SCAN response. It takes any pair type
// with KV's shape, so that a store's own scan results encode as they are.
func AppendOKPairs[P ~struct{ Key, Value []byte }](dst []byte, id uint32, pairs []P) []byte {
	dst, off := BeginOK(dst, id)
	dst = appendU32(dst, uint32(len(pairs)))
	for _, p := range pairs {
		kv := KV(p)
		dst = appendU32(dst, uint32(len(kv.Key)))
		dst = append(dst, kv.Key...)
		dst = appendU32(dst, uint32(len(kv.Value)))
		dst = append(dst, kv.Value...)
	}
	return EndFrame(dst, off)
}

// AppendError appends a non-OK response with a message.
func AppendError(dst []byte, id uint32, st Status, msg string) []byte {
	dst, off := beginFrame(dst)
	dst = append(dst, byte(st))
	dst = appendU32(dst, id)
	dst = append(dst, msg...)
	return EndFrame(dst, off)
}

// --------------------------------------------------------------------------
// Frame I/O.

// ReadFrame reads one length-prefixed frame body into buf (growing it as
// needed) and returns the body. io.EOF is returned unchanged when the
// peer closes cleanly between frames; a partial frame yields
// io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	// The length word is read into buf itself: a local array would escape
	// through the io.Reader interface and cost a heap object per frame.
	if cap(buf) < 4 {
		buf = make([]byte, 0, 512)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return buf, io.ErrUnexpectedEOF
		}
		return buf, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > MaxFrameSize {
		return buf, ErrFrameTooLarge
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) {
			return buf, io.ErrUnexpectedEOF
		}
		return buf, err
	}
	return buf, nil
}

// --------------------------------------------------------------------------
// Decoding. Decoders take the frame *body* (after the length word) and
// never panic on malformed input; every length field is validated against
// the remaining bytes before slicing.

type reader struct {
	buf []byte
	off int
}

func (r *reader) remain() int { return len(r.buf) - r.off }

func (r *reader) u8() (uint8, error) {
	if r.remain() < 1 {
		return 0, malformedf("truncated at byte %d", r.off)
	}
	v := r.buf[r.off]
	r.off++
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.remain() < 4 {
		return 0, malformedf("truncated at byte %d", r.off)
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

// bytes returns n bytes aliasing the frame buffer.
func (r *reader) bytes(n uint32) ([]byte, error) {
	if uint64(n) > uint64(r.remain()) {
		return nil, malformedf("length %d exceeds %d remaining bytes", n, r.remain())
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

func (r *reader) rest() []byte {
	b := r.buf[r.off:]
	r.off = len(r.buf)
	return b
}

// DecodeRequest decodes a request frame body. Returned slices alias body.
func DecodeRequest(body []byte) (Request, error) {
	var req Request
	r := &reader{buf: body}
	op, err := r.u8()
	if err != nil {
		return req, err
	}
	req.Op = Op(op)
	if req.Op == opInvalid || req.Op >= opMax {
		return req, malformedf("unknown opcode %d", op)
	}
	if req.ID, err = r.u32(); err != nil {
		return req, err
	}
	switch req.Op {
	case OpPing, OpStats:
		// No payload; trailing bytes are tolerated for forward compat.
	case OpGet, OpDelete:
		req.Key = r.rest()
		if len(req.Key) == 0 {
			return req, malformedf("%s with empty key", req.Op)
		}
	case OpPut:
		klen, err := r.u32()
		if err != nil {
			return req, err
		}
		if req.Key, err = r.bytes(klen); err != nil {
			return req, err
		}
		if len(req.Key) == 0 {
			return req, malformedf("PUT with empty key")
		}
		req.Value = r.rest()
	case OpScan:
		slen, err := r.u32()
		if err != nil {
			return req, err
		}
		if req.Start, err = r.bytes(slen); err != nil {
			return req, err
		}
		elen, err := r.u32()
		if err != nil {
			return req, err
		}
		if elen == NoBound {
			req.NoEnd = true
		} else if req.End, err = r.bytes(elen); err != nil {
			return req, err
		}
		limit, err := r.u32()
		if err != nil {
			return req, err
		}
		if limit == NoLimit {
			req.Limit = 0
		} else {
			req.Limit = int(limit)
		}
	case OpBatch:
		count, err := r.u32()
		if err != nil {
			return req, err
		}
		// Each op takes at least 9 bytes (kind + two length words), so a
		// hostile count cannot force a large allocation past this check.
		if uint64(count)*9 > uint64(r.remain()) {
			return req, malformedf("batch count %d exceeds frame size", count)
		}
		req.Ops = make([]BatchOp, 0, count)
		for i := uint32(0); i < count; i++ {
			var op BatchOp
			if op.Kind, err = r.u8(); err != nil {
				return req, err
			}
			if op.Kind != BatchPut && op.Kind != BatchDelete {
				return req, malformedf("batch op %d: unknown kind %d", i, op.Kind)
			}
			klen, err := r.u32()
			if err != nil {
				return req, err
			}
			if op.Key, err = r.bytes(klen); err != nil {
				return req, err
			}
			if len(op.Key) == 0 {
				return req, malformedf("batch op %d: empty key", i)
			}
			vlen, err := r.u32()
			if err != nil {
				return req, err
			}
			if op.Kind == BatchDelete && vlen != 0 {
				return req, malformedf("batch op %d: delete with value", i)
			}
			if op.Value, err = r.bytes(vlen); err != nil {
				return req, err
			}
			if op.Kind == BatchDelete {
				op.Value = nil
			}
			req.Ops = append(req.Ops, op)
		}
		if r.remain() != 0 {
			return req, malformedf("batch with %d trailing bytes", r.remain())
		}
	}
	return req, nil
}

// DecodeResponse decodes a response frame body for the given request
// opcode. Returned slices alias body.
func DecodeResponse(op Op, body []byte) (Response, error) {
	var resp Response
	r := &reader{buf: body}
	st, err := r.u8()
	if err != nil {
		return resp, err
	}
	resp.Status = Status(st)
	if resp.ID, err = r.u32(); err != nil {
		return resp, err
	}
	if resp.Status != StatusOK {
		resp.Msg = string(r.rest())
		return resp, nil
	}
	switch op {
	case OpGet:
		resp.Value = r.rest()
	case OpStats:
		resp.Stats = r.rest()
	case OpScan:
		count, err := r.u32()
		if err != nil {
			return resp, err
		}
		// Each pair takes at least 8 bytes of length words.
		if uint64(count)*8 > uint64(r.remain()) {
			return resp, malformedf("scan count %d exceeds frame size", count)
		}
		resp.Pairs = make([]KV, 0, count)
		for i := uint32(0); i < count; i++ {
			var kv KV
			klen, err := r.u32()
			if err != nil {
				return resp, err
			}
			if kv.Key, err = r.bytes(klen); err != nil {
				return resp, err
			}
			vlen, err := r.u32()
			if err != nil {
				return resp, err
			}
			if kv.Value, err = r.bytes(vlen); err != nil {
				return resp, err
			}
			resp.Pairs = append(resp.Pairs, kv)
		}
	}
	return resp, nil
}
