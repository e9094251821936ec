package server

import (
	"io"
	"net"
	"testing"

	"unikv"
	"unikv/internal/protocol"
	"unikv/internal/vfs"
)

// benchConn serves a memFS store on loopback and returns one raw
// connection to it. The benchmarks below drive it synchronously with
// frames built once and responses read into a fixed buffer, so the client
// side allocates nothing and allocs/op is the server's (plus the engine's
// amortised maintenance).
func benchConn(b *testing.B) net.Conn {
	db, err := unikv.Open(b.TempDir(), &unikv.Options{FS: vfs.NewMem()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	s := New(db, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go s.Serve(ln)
	b.Cleanup(func() { s.Close() })
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

const (
	benchKeys    = 4096
	benchValSize = 1024
)

// roundTrip writes one request frame and reads the n response bytes it
// must produce.
func roundTrip(b *testing.B, c net.Conn, frame, resp []byte) {
	if _, err := c.Write(frame); err != nil {
		b.Fatal(err)
	}
	if _, err := io.ReadFull(c, resp); err != nil {
		b.Fatal(err)
	}
	if st := protocol.Status(resp[4]); st != protocol.StatusOK {
		b.Fatalf("status %s", st)
	}
}

// putFrames returns one PUT frame per benchmark key.
func putFrames() [][]byte {
	value := make([]byte, benchValSize)
	frames := make([][]byte, benchKeys)
	for i := range frames {
		frames[i] = protocol.AppendPut(nil, uint32(i), key(i), value)
	}
	return frames
}

func BenchmarkServerPut(b *testing.B) {
	c := benchConn(b)
	frames := putFrames()
	resp := make([]byte, len(protocol.AppendOKEmpty(nil, 0)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip(b, c, frames[i%benchKeys], resp)
	}
}

func BenchmarkServerGet(b *testing.B) {
	c := benchConn(b)
	resp := make([]byte, len(protocol.AppendOKEmpty(nil, 0)))
	for _, f := range putFrames() {
		roundTrip(b, c, f, resp)
	}
	frames := make([][]byte, benchKeys)
	for i := range frames {
		frames[i] = protocol.AppendGet(nil, uint32(i), key(i))
	}
	resp = make([]byte, len(resp)+benchValSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip(b, c, frames[i%benchKeys], resp)
	}
}
