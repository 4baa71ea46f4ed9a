package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"
)

// opTimeout bounds one HTTP call; a call that exceeds it is a failed op.
const opTimeout = 30 * time.Second

// newClient is the load generator's HTTP client: keep-alive loopback
// connections, at most conns per node, no proxy, no compression.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: opTimeout,
		Transport: &http.Transport{
			Proxy:               nil,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
}

// call is one completed HTTP exchange, timed from sending the request
// to reading the full response body.
type call struct {
	status int
	body   []byte
	etag   string
	timing string // raw Server-Timing header
	start  time.Time
	end    time.Time
}

func (c call) ms() float64 { return float64(c.end.Sub(c.start).Nanoseconds()) / 1e6 }

// do sends one request; inm, when set, is sent as If-None-Match.
func do(hc *http.Client, method, url string, body []byte, inm string) (call, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return call{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	c := call{start: time.Now()}
	resp, err := hc.Do(req)
	if err != nil {
		return c, fmt.Errorf("%s %s: %w", method, url, err)
	}
	c.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	c.end = time.Now()
	if err != nil {
		return c, fmt.Errorf("%s %s: read body: %w", method, url, err)
	}
	c.status = resp.StatusCode
	c.etag = resp.Header.Get("Etag")
	c.timing = resp.Header.Get("Server-Timing")
	return c, nil
}
