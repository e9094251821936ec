package client

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"testing"

	"unikv/internal/protocol"
)

// startCanned starts a responder that answers every request frame with a
// reply encoded once up front — a GET with value, a SCAN with pairs,
// anything else with an empty OK — patching in only the request's id. It
// allocates nothing per request, so an allocation count taken around a
// client call is the client's own.
func startCanned(t *testing.T, value []byte, pairs []protocol.KV) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	okValue := protocol.AppendOKValue(nil, 0, value)
	okEmpty := protocol.AppendOKEmpty(nil, 0)
	okPairs := protocol.AppendOKPairs(nil, 0, pairs)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				buf := make([]byte, 0, 512)
				get, empty := append([]byte(nil), okValue...), append([]byte(nil), okEmpty...)
				scan := append([]byte(nil), okPairs...)
				for {
					req, err := protocol.ReadFrame(nc, buf[:0])
					if err != nil || len(req) < 5 {
						return
					}
					buf = req
					// Request body: op byte, then the id; reply frame:
					// length word, status byte, then the id.
					reply := empty
					switch protocol.Op(req[0]) {
					case protocol.OpGet:
						reply = get
					case protocol.OpScan:
						reply = scan
					}
					copy(reply[5:9], req[1:5])
					if _, err := nc.Write(reply); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestClientAllocs pins the client's allocations per operation on a warm
// pooled connection: a write allocates nothing (its request and response
// go through the connection's reused buffer, and the closures that build
// them stay on the stack), and a GET allocates once, for the value it
// copies out of that buffer. A SCAN allocates three times whatever its pair
// count: the decoded pair list, the result slice, and one region that all
// the pairs' bytes are copied into.
func TestClientAllocs(t *testing.T) {
	value := make([]byte, 100)
	binary.LittleEndian.PutUint64(value, 0xfeed)
	pairs := make([]protocol.KV, 100)
	for i := range pairs {
		pairs[i] = protocol.KV{Key: fmt.Appendf(nil, "key-%04d", i), Value: value[:i]}
	}
	c, err := Dial(startCanned(t, value, pairs), &Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	key := []byte("key-0001")
	for _, tc := range []struct {
		name string
		want float64
		op   func() error
	}{
		{"Put", 0, func() error { return c.Put(key, value) }},
		{"Delete", 0, func() error { return c.Delete(key) }},
		{"Get", 1, func() error {
			v, err := c.Get(key)
			if err == nil && len(v) != len(value) {
				t.Fatalf("Get returned %d bytes, want %d", len(v), len(value))
			}
			return err
		}},
		{"Scan", 3, func() error {
			kvs, err := c.Scan(key, nil, len(pairs))
			if err == nil && (len(kvs) != len(pairs) || !bytes.Equal(kvs[99].Key, pairs[99].Key) || !bytes.Equal(kvs[99].Value, pairs[99].Value)) {
				t.Fatalf("Scan returned %d pairs, want %d with the last one intact", len(kvs), len(pairs))
			}
			return err
		}},
	} {
		if err := tc.op(); err != nil { // warm the connection and its buffers
			t.Fatalf("%s: %v", tc.name, err)
		}
		var opErr error
		got := testing.AllocsPerRun(200, func() {
			if err := tc.op(); err != nil {
				opErr = err
			}
		})
		if opErr != nil {
			t.Fatalf("%s: %v", tc.name, opErr)
		}
		if got != tc.want {
			t.Errorf("%s allocates %v times per call, want %v", tc.name, got, tc.want)
		}
	}
}
