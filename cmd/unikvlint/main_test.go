package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles unikvlint into dir and returns the binary path.
func buildTool(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "unikvlint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building unikvlint: %v\n%s", err, out)
	}
	return bin
}

// writeModule materializes files (path -> content) under dir.
func writeModule(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, content := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// govet runs `go vet -vettool=bin ./...` in dir and returns combined
// output plus whether it succeeded.
func govet(t *testing.T, bin, dir string) (string, bool) {
	t.Helper()
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	return out.String(), err == nil
}

const goMod = "module tmpmod\n\ngo 1.22\n"

// TestVetToolProtocol exercises the full cmd/go handshake: -flags, -V=full,
// then a real `go vet -vettool` run over seeded modules.
func TestVetToolProtocol(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go not on PATH")
	}
	tmp := t.TempDir()
	bin := buildTool(t, tmp)

	t.Run("flags", func(t *testing.T) {
		out, err := exec.Command(bin, "-flags").Output()
		if err != nil {
			t.Fatalf("-flags: %v", err)
		}
		if got := strings.TrimSpace(string(out)); got != "[]" {
			t.Fatalf("-flags = %q, want []", got)
		}
	})

	t.Run("version", func(t *testing.T) {
		out, err := exec.Command(bin, "-V=full").Output()
		if err != nil {
			t.Fatalf("-V=full: %v", err)
		}
		f := strings.Fields(string(out))
		// cmd/go requires: name, "version", and for devel a trailing buildID=.
		if len(f) < 3 || f[1] != "version" || f[2] != "devel" || !strings.HasPrefix(f[len(f)-1], "buildID=") {
			t.Fatalf("-V=full = %q, want `unikvlint version devel ... buildID=...`", out)
		}
	})

	t.Run("clean module passes", func(t *testing.T) {
		dir := filepath.Join(tmp, "clean")
		writeModule(t, dir, map[string]string{
			"go.mod": goMod,
			"internal/core/clean.go": `package core

import "errors"

var ErrGone = errors.New("gone")

func Add(a, b int) int { return a + b }
`,
		})
		out, ok := govet(t, bin, dir)
		if !ok {
			t.Fatalf("go vet failed on clean module:\n%s", out)
		}
	})

	t.Run("live allow suppresses", func(t *testing.T) {
		dir := filepath.Join(tmp, "allowed")
		writeModule(t, dir, map[string]string{
			"go.mod": goMod,
			// The os.ReadFile would be a vfsonly finding; the annotation
			// suppresses it, and because it suppresses something it is not
			// reported as stale either.
			"internal/core/raw.go": `package core

import "os"

func ReadRaw(p string) ([]byte, error) {
	//unikv:allow(vfsonly) exercising the suppression path end to end
	return os.ReadFile(p)
}
`,
		})
		out, ok := govet(t, bin, dir)
		if !ok {
			t.Fatalf("go vet failed despite a live allow:\n%s", out)
		}
	})

	t.Run("stale allow fails", func(t *testing.T) {
		dir := filepath.Join(tmp, "stale")
		writeModule(t, dir, map[string]string{
			"go.mod": goMod,
			// Nothing on the annotated line violates vfsonly: the comment
			// outlived whatever it once excused and must be reported.
			"internal/core/stale.go": `package core

import "errors"

var errDone = errors.New("done")

//unikv:allow(vfsonly) the os call this excused is long gone
func Done() error { return errDone }
`,
		})
		out, ok := govet(t, bin, dir)
		if ok {
			t.Fatalf("go vet passed despite a stale allow:\n%s", out)
		}
		for _, want := range []string{"unikvlint:staleallow", "stale suppression"} {
			if !strings.Contains(out, want) {
				t.Errorf("output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("seeded violations fail", func(t *testing.T) {
		dir := filepath.Join(tmp, "bad")
		writeModule(t, dir, map[string]string{
			"go.mod": goMod,
			// vfsonly: package os used inside internal/core.
			"internal/core/io.go": `package core

import "os"

func Slurp(p string) ([]byte, error) { return os.ReadFile(p) }
`,
			// lockorder: flushMu held while taking maintMu, plus a leak.
			"internal/core/locks.go": `package core

type mu struct{}

func (m *mu) Lock()   {}
func (m *mu) Unlock() {}

type DB struct {
	maintMu mu
	flushMu mu
}

func (db *DB) Inverted() {
	db.flushMu.Lock()
	db.maintMu.Lock()
	db.maintMu.Unlock()
	db.flushMu.Unlock()
}

func (db *DB) Leaky() {
	db.maintMu.Lock()
}
`,
			// atomiccounter: n is both atomic and plain.
			"internal/core/counter.go": `package core

import "sync/atomic"

var n int64

func Inc() { atomic.AddInt64(&n, 1) }
func Racy() int64 { return n }
`,
			// syncpublish: rename on a SyncDir-capable fs, never synced.
			"internal/core/publish.go": `package core

type FS interface {
	Rename(oldname, newname string) error
	SyncDir(dir string) error
}

func Swap(fs FS) error { return fs.Rename("CURRENT.tmp", "CURRENT") }
`,
			// refpair: the pinned version leaks on the error return.
			"internal/core/refs.go": `package core

import "errors"

type version struct{ refs int }

func (v *version) release() { v.refs-- }

type partition struct{ cur *version }

func (p *partition) acquire() *version { p.cur.refs++; return p.cur }

func step() error { return errors.New("boom") }

func LeakPin(p *partition) error {
	v := p.acquire()
	if err := step(); err != nil {
		return err
	}
	v.release()
	return nil
}
`,
			// errclass: a bare errors.New on the background-job path.
			"internal/core/retry.go": `package core

import "errors"

func runWithRetry() error { return gcJob() }

func gcJob() error { return errors.New("checksum mismatch") }
`,
			// atomicpublish: mutated after the Store published it.
			"internal/core/pub.go": `package core

import "sync/atomic"

type snapState struct{ seq uint64 }

type holder struct{ cur atomic.Pointer[snapState] }

func Publish(h *holder, seq uint64) {
	s := &snapState{}
	h.cur.Store(s)
	s.seq = seq
}
`,
		})
		out, ok := govet(t, bin, dir)
		if ok {
			t.Fatalf("go vet unexpectedly passed on seeded module:\n%s", out)
		}
		for _, want := range []string{
			"unikvlint:vfsonly",
			"unikvlint:lockorder",
			"unikvlint:atomiccounter",
			"unikvlint:syncpublish",
			"unikvlint:refpair",
			"unikvlint:errclass",
			"unikvlint:atomicpublish",
			"inverts the documented lock order",
			"never unlocked",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("output missing %q:\n%s", want, out)
			}
		}
	})
}
