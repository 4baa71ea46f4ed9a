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

func newPostRequest(b *testing.B, path string, body []byte) (*http.Request, *bytes.Reader) {
	b.Helper()
	rd := bytes.NewReader(body)
	req, err := http.NewRequest(http.MethodPost, path, nil)
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

// BenchmarkWarmServe measures one warm POST /v1/run four ways, one
// per rung of the serve ladder, and one warm POST /v1/sweep:
//
//	run-warm      the response-byte fast lane (L0 hit by body bytes,
//	              zero JSON work)
//	run-304       the conditional lane (If-None-Match match, no body)
//	run-canonical a new spelling of a served spec: an L0 miss by body
//	              bytes, then decode, resolve and an L0 hit by spec key
//	run-slowpath  the byte cache disabled — the pre-PR warm path:
//	              decode, resolve, memoized compile, run, marshal
//	sweep-memo    a 2-point sweep whose compiles hit the memo: decode,
//	              grid resolution, ETag, admission, two runs, marshal
//
// run-warm vs run-slowpath is the tentpole's speedup; the allocs/op of
// run-warm is the zero-copy claim, enforced by CI's bench smoke.
// run-canonical vs run-slowpath is what the canonical-key rung is
// worth over recomputing from the compile memo.
func BenchmarkWarmServe(b *testing.B) {
	runBody := []byte(`{"platform":"wse","model":"gpt2-small"}`)

	bench := func(b *testing.B, path string, body []byte, cfg server.Config, inm string, wantStatus int, respell bool) {
		b.Helper()
		experiments.ResetCaches()
		srv, err := server.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		req, rd := newPostRequest(b, path, body)
		// Prime every tier (memo cells, byte cache, the ETag).
		w := serveOnce(b, srv, req, rd, http.StatusOK)
		if inm != "" {
			if etag := w.h.Get("Etag"); etag != "" {
				req.Header.Set("If-None-Match", etag)
			} else {
				b.Fatal("priming response carried no ETag")
			}
		}
		bodies := [][]byte{body}
		if respell {
			// b.N spellings of the primed spec, each new to L0's body
			// key: JSON whitespace after the opening brace writes i in
			// base 4, so every spelling is distinct and short.
			bodies = make([][]byte, b.N)
			for i := range bodies {
				pad := []byte{}
				for n := i; ; n /= 4 {
					pad = append(pad, " \t\n\r"[n%4])
					if n < 4 {
						break
					}
				}
				bodies[i] = append(append([]byte("{"), pad...), body[1:]...)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		w = &nullRW{h: make(http.Header)}
		for i := 0; i < b.N; i++ {
			bd := bodies[i%len(bodies)]
			rd.Reset(bd)
			req.ContentLength = int64(len(bd))
			w.status = 0
			srv.ServeHTTP(w, req)
			if w.status != wantStatus {
				b.Fatalf("status = %d, want %d", w.status, wantStatus)
			}
		}
	}

	b.Run("run-warm", func(b *testing.B) {
		bench(b, "/v1/run", runBody, server.Config{}, "", http.StatusOK, false)
	})
	b.Run("run-304", func(b *testing.B) {
		bench(b, "/v1/run", runBody, server.Config{}, "etag", http.StatusNotModified, false)
	})
	b.Run("run-canonical", func(b *testing.B) {
		bench(b, "/v1/run", runBody, server.Config{}, "", http.StatusOK, true)
	})
	b.Run("run-slowpath", func(b *testing.B) {
		bench(b, "/v1/run", runBody, server.Config{RespCacheBudget: -1}, "", http.StatusOK, false)
	})
	b.Run("sweep-memo", func(b *testing.B) {
		sweep := []byte(`{"platform":"wse","model":"gpt2-small","batches":[256,512]}`)
		bench(b, "/v1/sweep", sweep, server.Config{}, "", http.StatusOK, false)
	})
}
