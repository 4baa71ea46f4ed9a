package experiments

import (
	"io"
	"strings"

	"dabench/internal/platform"
)

// SharedPlatform resolves a platform name to the process-wide cached
// simulator the experiment runners share. Serving layers must go
// through this accessor rather than wrap their own platform.Cached:
// one shared set is what makes identical specs coalesce in the
// singleflight compile cells whether they arrive from an
// experiment runner, a direct /v1/run request, or a sweep. Vendor
// aliases match the CLI's.
func SharedPlatform(name string) (platform.CachedPlatform, bool) {
	switch strings.ToLower(name) {
	case "wse", "wse-2", "cerebras":
		return cachedWSE, true
	case "rdu", "sn30", "sambanova":
		return cachedRDU, true
	case "ipu", "bow", "graphcore":
		return cachedIPU, true
	case "gpu", "a100":
		return cachedGPU, true
	default:
		return nil, false
	}
}

// PlatformNames lists the canonical shared-platform names.
func PlatformNames() []string { return []string{"wse", "rdu", "ipu", "gpu"} }

// Render writes the result's tables to w in the CLI's wire format:
// aligned text, or CSV when csv is set. Every table-producing surface
// renders through this one function — cmd/dabench (experiments and
// scenario runs alike), the HTTP server's /v1/experiments and
// /v1/scenarios endpoints, and async scenario job results — and that
// shared path is what keeps a served body byte-identical to the CLI's
// stdout for the same artifact.
func (r *Result) Render(w io.Writer, csv bool) error {
	for _, t := range r.Tables {
		var err error
		if csv {
			err = t.WriteCSV(w)
		} else {
			err = t.WriteText(w)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
