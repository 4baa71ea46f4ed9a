package store

import (
	"bytes"
	"strings"
	"testing"
)

// TestValidAddr pins the blob-address gate: exactly 64 lowercase hex
// characters, nothing else. The rejects include every traversal-shaped
// input a crafted /v1/blobs/{addr} request could smuggle toward the
// store's path construction.
func TestValidAddr(t *testing.T) {
	ok := Address("WSE-2", "some-spec-key")
	if !ValidAddr(ok) {
		t.Fatalf("ValidAddr(%q) = false, want true", ok)
	}
	rejects := []string{
		"",
		"..",
		"../../etc/passwd",
		"..%2f..%2fetc%2fpasswd",
		strings.Repeat("a", 63),                  // one short
		strings.Repeat("a", 65),                  // one long
		strings.ToUpper(ok),                      // uppercase hex
		strings.Repeat("z", 64),                  // right length, not hex
		ok[:62] + "/x",                           // separator inside
		"." + ok[1:],                             // dot prefix
		ok[:63] + "\x00",                         // NUL
		"aa/" + strings.Repeat("b", 61),          // sharded-path shape
		"..\\..\\" + strings.Repeat("c", 58),     // windows separators
		strings.Repeat("a", 32) + "\n" + ok[:31], // newline
	}
	for _, bad := range rejects {
		if ValidAddr(bad) {
			t.Errorf("ValidAddr(%q) = true, want false", bad)
		}
	}
}

// TestReadFrameExportsRawBytes: the export path hands out the exact
// on-disk frame, and rejects malformed addresses before touching the
// filesystem.
func TestReadFrameExportsRawBytes(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	spec := testSpec(12)
	s.StoreWithResponse("WSE-2", spec.Key(), testStored(12), []byte(`{"served":"bytes"}`))
	s.Snapshot()

	addr := Address("WSE-2", spec.Key())
	frame, ok := s.ReadFrame(addr)
	if !ok {
		t.Fatalf("ReadFrame(%s) missed a just-written blob", addr)
	}
	payload, resp, err := decodeFrame(frame)
	if err != nil {
		t.Fatalf("exported bytes are not a valid frame: %v", err)
	}
	if len(payload) == 0 || !bytes.Equal(resp, []byte(`{"served":"bytes"}`)) {
		t.Errorf("frame sections: payload %d bytes, resp %q", len(payload), resp)
	}
	for _, bad := range []string{"", "../../x", strings.Repeat("a", 63)} {
		if _, ok := s.ReadFrame(bad); ok {
			t.Errorf("ReadFrame(%q) = ok, want rejected", bad)
		}
	}
	if _, ok := s.ReadFrame(Address("WSE-2", "never-stored")); ok {
		t.Error("ReadFrame of an absent address = ok, want miss")
	}
}
