package server

import (
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"unikv"
	"unikv/internal/vfs"
)

// TestHealthHandler drives /healthz across the degraded transition: 200
// while the engine accepts writes, 503 with the cause in the body once a
// background failure flips it to read-only — the drain signal for HTTP
// load balancers.
func TestHealthHandler(t *testing.T) {
	ffs := vfs.NewFail(vfs.NewMem())
	s, db, _ := startServer(t, &unikv.Options{
		FS:                ffs,
		MemtableSize:      2 << 10,
		UnsortedLimit:     8 << 10,
		BackgroundWorkers: 2,
	}, Options{})
	h := s.HealthHandler()

	get := func() (int, string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		body, _ := io.ReadAll(rec.Result().Body)
		return rec.Code, string(body)
	}

	if code, body := get(); code != 200 || strings.TrimSpace(body) != "ok" {
		t.Fatalf("healthy: %d %q, want 200 ok", code, body)
	}

	ffs.ArmPlan(vfs.FailPlan{Fail: -1, Kinds: vfs.OpWrite, Pattern: "*.sst"})
	defer ffs.Disarm()
	var writeErr error
	for i := 0; i < 50000; i++ {
		if writeErr = db.Put(key(i), val(i)); writeErr != nil {
			break
		}
	}
	if !errors.Is(writeErr, unikv.ErrDegraded) {
		t.Fatalf("write error %v, want ErrDegraded", writeErr)
	}
	code, body := get()
	if code != 503 {
		t.Fatalf("degraded: status %d, want 503", code)
	}
	if !strings.Contains(body, "degraded") || !strings.Contains(body, "flush") {
		t.Fatalf("degraded body %q, want the mode and cause named", body)
	}
}
