package main

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// The serve ladder's rungs, cheapest first, as the per-layer metrics
// name them.
const (
	rungL0Body      = "l0_body"
	rungL0Canonical = "l0_canonical"
	rungNotModified = "not_modified"
	rungStore       = "store"
	rungCompute     = "compute"
)

var rungs = []string{rungL0Body, rungL0Canonical, rungNotModified, rungStore, rungCompute}

// serverStages are the Server-Timing stage names dabenchd emits, in
// its column order.
var serverStages = []string{"admission", "decode", "compile", "run", "render", "store_read", "store_write", "total"}

// parseServerTiming decodes a Server-Timing header value of the form
// `name;dur=1.234, name;dur=0.5` into stage durations in milliseconds.
func parseServerTiming(v string) (map[string]float64, error) {
	out := map[string]float64{}
	if strings.TrimSpace(v) == "" {
		return out, nil
	}
	for _, part := range strings.Split(v, ",") {
		fields := strings.Split(strings.TrimSpace(part), ";")
		name := strings.TrimSpace(fields[0])
		if name == "" {
			return nil, fmt.Errorf("server-timing %q: empty metric name", v)
		}
		dur := 0.0
		for _, p := range fields[1:] {
			k, val, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok || k != "dur" {
				continue
			}
			d, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("server-timing %q: %w", v, err)
			}
			dur = d
		}
		out[name] = dur
	}
	return out, nil
}

// classifyRung names the rung that answered a /v1/run or /v1/sweep
// request from its status and the set of stages the server recorded:
// a 304 is the conditional lane wherever it was answered; compile or
// run means the pipeline ran (memo tiers or simulation); store_read
// without them is an L2 frame, local or peer-fetched; decode alone is
// the canonical-key L0 hit; no decode at all is the verbatim-body L0.
func classifyRung(status int, stages map[string]float64) (string, error) {
	_, compile := stages["compile"]
	_, run := stages["run"]
	_, storeRead := stages["store_read"]
	_, decode := stages["decode"]
	switch {
	case status == http.StatusNotModified:
		return rungNotModified, nil
	case status != http.StatusOK:
		return "", fmt.Errorf("status %d answers no rung", status)
	case compile || run:
		return rungCompute, nil
	case storeRead:
		return rungStore, nil
	case decode:
		return rungL0Canonical, nil
	default:
		return rungL0Body, nil
	}
}
