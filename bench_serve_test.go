// Benchmarks for the daemon's warm serve path: repeat /v1/run requests
// answered from the response-byte cache (pre-marshaled bytes straight
// to the writer), the ETag/304 conditional lane (no body at all), and
// — as the comparator — the pre-byte-cache warm path (memoized
// compile/run plus a fresh JSON marshal per request). BENCH_2.json
// pins the medians; CI enforces the warm path's allocs/op ceiling.
package dabench_test

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"dabench/internal/experiments"
	"dabench/internal/server"
)

// nullRW is a ResponseWriter that discards the body: the benchmark
// measures the serve path, not an in-memory recorder's buffering.
type nullRW struct {
	h      http.Header
	status int
}

func (w *nullRW) Header() http.Header         { return w.h }
func (w *nullRW) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullRW) WriteHeader(code int)        { w.status = code }

// replayBody lets one request body be rewound and replayed across
// iterations without per-iteration allocations.
type replayBody struct{ *bytes.Reader }

func (replayBody) Close() error { return nil }

func newRunRequest(b *testing.B, body []byte) (*http.Request, *bytes.Reader) {
	b.Helper()
	rd := bytes.NewReader(body)
	req, err := http.NewRequest(http.MethodPost, "/v1/run", nil)
	if err != nil {
		b.Fatal(err)
	}
	req.Body = replayBody{rd}
	req.ContentLength = int64(len(body))
	return req, rd
}

func serveOnce(b *testing.B, h http.Handler, req *http.Request, rd *bytes.Reader, wantStatus int) *nullRW {
	b.Helper()
	w := &nullRW{h: make(http.Header)}
	if _, err := rd.Seek(0, io.SeekStart); err != nil {
		b.Fatal(err)
	}
	h.ServeHTTP(w, req)
	if w.status != wantStatus {
		b.Fatalf("status = %d, want %d", w.status, wantStatus)
	}
	return w
}

// BenchmarkWarmServe measures one warm POST /v1/run three ways:
//
//	run-warm     the response-byte fast lane (L0 hit, zero JSON work)
//	run-304      the conditional lane (If-None-Match match, no body)
//	run-slowpath the byte cache disabled — the pre-PR warm path:
//	             decode, resolve, memoized compile, run, marshal
//
// run-warm vs run-slowpath is the tentpole's speedup; the allocs/op of
// run-warm is the zero-copy claim, enforced by CI's bench smoke.
func BenchmarkWarmServe(b *testing.B) {
	body := []byte(`{"platform":"wse","model":"gpt2-small"}`)

	bench := func(b *testing.B, cfg server.Config, inm string, wantStatus int) {
		b.Helper()
		experiments.ResetCaches()
		srv, err := server.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		req, rd := newRunRequest(b, body)
		// Prime every tier (memo cells, byte cache, the ETag).
		w := serveOnce(b, srv, req, rd, http.StatusOK)
		if inm != "" {
			if etag := w.h.Get("Etag"); etag != "" {
				req.Header.Set("If-None-Match", etag)
			} else {
				b.Fatal("priming response carried no ETag")
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		w = &nullRW{h: make(http.Header)}
		for i := 0; i < b.N; i++ {
			rd.Seek(0, io.SeekStart)
			w.status = 0
			srv.ServeHTTP(w, req)
			if w.status != wantStatus {
				b.Fatalf("status = %d, want %d", w.status, wantStatus)
			}
		}
	}

	b.Run("run-warm", func(b *testing.B) {
		bench(b, server.Config{}, "", http.StatusOK)
	})
	b.Run("run-304", func(b *testing.B) {
		bench(b, server.Config{}, "etag", http.StatusNotModified)
	})
	b.Run("run-slowpath", func(b *testing.B) {
		bench(b, server.Config{RespCacheBudget: -1}, "", http.StatusOK)
	})
}
