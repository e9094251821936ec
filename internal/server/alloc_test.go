package server_test

import (
	"bytes"
	"fmt"
	"net"
	"testing"

	"unikv"
	"unikv/internal/server"
	"unikv/internal/vfs"
	"unikv/pkg/client"
)

// TestServerGetAllocs pins what a GET round trip between an in-process
// server and a pooled client allocates: once, for the value the client
// hands its caller. The server appends the engine's value straight into
// its response frame, so its side allocates nothing.
func TestServerGetAllocs(t *testing.T) {
	db, err := unikv.Open(t.TempDir(), &unikv.Options{FS: vfs.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := server.New(db, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()
	c, err := client.Dial(ln.Addr().String(), &client.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const keys = 64
	key := func(i int) []byte { return fmt.Appendf(nil, "key-%04d", i) }
	value := func(i int) []byte { return bytes.Repeat(fmt.Appendf(nil, "value-%04d|", i), 90) } // ~1 KiB
	for i := range keys {
		if err := c.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	get := func(i int) {
		if v, err := c.Get(key(i)); err != nil || !bytes.Equal(v, value(i)) {
			t.Fatalf("Get key %d: %d bytes, %v", i, len(v), err)
		}
	}
	// Warm: the first read of a key promotes it into the hot ring (the
	// ring's own copy, not the path under test).
	for i := range keys {
		get(i)
	}
	ks := make([][]byte, keys)
	for i := range ks {
		ks[i] = key(i)
	}
	next := 0
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := c.Get(ks[next%keys]); err != nil {
			t.Fatalf("Get key %d: %v", next%keys, err)
		}
		next++
	})
	if allocs != 1 && !raceEnabled {
		t.Fatalf("a GET round trip allocates %v times, want 1 (the client's value)", allocs)
	}
}
