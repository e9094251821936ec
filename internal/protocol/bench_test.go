package protocol

import (
	"bufio"
	"bytes"
	"testing"
)

var (
	benchKey   = []byte("user:0000000042")
	benchValue = bytes.Repeat([]byte{'v'}, 1024)
	sinkReq    Request
	sinkResp   Response
	sinkBuf    []byte
)

// BenchmarkEncodeDecodePut: a PUT request encoded into a reused buffer
// and decoded back — what each side of a connection does per write.
func BenchmarkEncodeDecodePut(b *testing.B) {
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = AppendPut(buf[:0], uint32(i), benchKey, benchValue)
		sinkReq, _ = DecodeRequest(buf[4:])
	}
}

// BenchmarkEncodeDecodeGetResponse: a GET answer carrying a 1 KiB value.
func BenchmarkEncodeDecodeGetResponse(b *testing.B) {
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = AppendOKValue(buf[:0], uint32(i), benchValue)
		sinkResp, _ = DecodeResponse(OpGet, buf[4:])
	}
}

// BenchmarkEncodeDecodeBatch: a 16-op BATCH; decoding allocates the op
// slice.
func BenchmarkEncodeDecodeBatch(b *testing.B) {
	ops := make([]BatchOp, 16)
	for i := range ops {
		ops[i] = BatchOp{Kind: BatchPut, Key: benchKey, Value: benchValue[:64]}
	}
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = AppendBatch(buf[:0], uint32(i), ops)
		sinkReq, _ = DecodeRequest(buf[4:])
	}
}

// BenchmarkReadFrame: one frame out of a buffered stream into a reused
// body buffer — the per-response cost of the client's read side.
func BenchmarkReadFrame(b *testing.B) {
	frame := AppendOKValue(nil, 1, benchValue)
	src := bytes.NewReader(frame)
	br := bufio.NewReader(src)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.Reset(frame)
		br.Reset(src)
		sinkBuf, _ = ReadFrame(br, sinkBuf[:0])
	}
}
