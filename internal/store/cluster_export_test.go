package store

import (
	"bytes"
	"encoding/json"
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

// TestAdoptFrameRoundTrip: a frame exported by one store adopts into a
// second store and loads back as the identical outcome, response
// section included.
func TestAdoptFrameRoundTrip(t *testing.T) {
	src := mustOpen(t, t.TempDir(), 0)
	spec := testSpec(24)
	want := testStored(24)
	src.StoreWithResponse("WSE-2", spec.Key(), want, []byte(`{"r":1}`))
	src.Snapshot()
	addr := Address("WSE-2", spec.Key())
	frame, ok := src.ReadFrame(addr)
	if !ok {
		t.Fatal("source ReadFrame missed")
	}

	dst := mustOpen(t, t.TempDir(), 0)
	st, resp, err := dst.AdoptFrame(addr, frame)
	if err != nil {
		t.Fatalf("AdoptFrame: %v", err)
	}
	if st.Compile == nil || st.Run == nil || st.Run.Compile != st.Compile {
		t.Errorf("adopted outcome incomplete: %+v", st)
	}
	if !bytes.Equal(resp, []byte(`{"r":1}`)) {
		t.Errorf("adopted response section = %q", resp)
	}
	dst.Snapshot()
	if got, ok := dst.Load("WSE-2", spec.Key()); !ok || got.Run == nil || got.Run.StepTime != want.Run.StepTime {
		t.Errorf("adopted blob did not load back: ok=%v got=%+v", ok, got)
	}
	if raw, ok := dst.LoadRaw("WSE-2", spec.Key()); !ok || !bytes.Equal(raw, []byte(`{"r":1}`)) {
		t.Errorf("adopted response bytes did not serve back: ok=%v raw=%q", ok, raw)
	}
	if dst.Stats().Puts != 1 {
		t.Errorf("adoption puts = %d, want 1", dst.Stats().Puts)
	}
}

// TestAdoptFrameRejectsUntrustworthyBytes: adoption re-derives the
// address from the payload's identity and verifies frame integrity, so
// a peer cannot plant bytes under a foreign address, ship a torn frame,
// or smuggle a different pipeline version.
func TestAdoptFrameRejectsUntrustworthyBytes(t *testing.T) {
	src := mustOpen(t, t.TempDir(), 0)
	spec := testSpec(36)
	src.Store("WSE-2", spec.Key(), testStored(36))
	src.Snapshot()
	addr := Address("WSE-2", spec.Key())
	frame, ok := src.ReadFrame(addr)
	if !ok {
		t.Fatal("source ReadFrame missed")
	}

	dst := mustOpen(t, t.TempDir(), 0)

	if _, _, err := dst.AdoptFrame("../../etc/passwd", frame); err == nil {
		t.Error("traversal-shaped address adopted, want rejection")
	}

	// A valid frame under the wrong (but well-formed) address: the
	// payload's identity does not hash to it.
	other := Address("WSE-2", "a-different-spec")
	if _, _, err := dst.AdoptFrame(other, frame); err == nil {
		t.Error("frame adopted under a foreign address, want identity rejection")
	}

	// Bit-flip inside the payload: the frame CRC must catch it.
	torn := append([]byte(nil), frame...)
	torn[len(torn)/2] ^= 0xff
	if _, _, err := dst.AdoptFrame(addr, torn); err == nil {
		t.Error("corrupted frame adopted, want CRC rejection")
	}

	// A well-formed frame whose payload claims a different pipeline
	// version: refuse rather than serve cross-version results.
	var b blob
	payload, _, err := decodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(payload, &b); err != nil {
		t.Fatal(err)
	}
	b.Version = PipelineVersion + 1
	vpay, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dst.AdoptFrame(addr, encodeFrame(vpay, nil)); err == nil {
		t.Error("cross-version frame adopted, want version rejection")
	}

	// Valid JSON that is not a blob at all.
	if _, _, err := dst.AdoptFrame(addr, encodeFrame([]byte(`{"hello":"world"}`), nil)); err == nil {
		t.Error("outcome-free payload adopted, want rejection")
	}

	if dst.Stats().Puts != 0 {
		t.Errorf("rejected adoptions still put %d blobs", dst.Stats().Puts)
	}
}

// TestAdoptFrameAcceptsBareV1Payload: a v1 node exports bare JSON; a
// v2 node adopts it re-framed so the upgrade is paid once, at adoption.
func TestAdoptFrameAcceptsBareV1Payload(t *testing.T) {
	src := mustOpen(t, t.TempDir(), 0)
	spec := testSpec(48)
	src.Store("WSE-2", spec.Key(), testStored(48))
	src.Snapshot()
	addr := Address("WSE-2", spec.Key())
	frame, ok := src.ReadFrame(addr)
	if !ok {
		t.Fatal("source ReadFrame missed")
	}
	payload, _, err := decodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}

	dst := mustOpen(t, t.TempDir(), 0)
	if _, _, err := dst.AdoptFrame(addr, payload); err != nil { // bare JSON, no frame
		t.Fatalf("bare v1 payload rejected: %v", err)
	}
	dst.Snapshot()
	if got, ok := dst.ReadFrame(addr); !ok {
		t.Fatal("adopted v1 payload not re-exportable")
	} else if _, _, err := decodeFrame(got); err != nil {
		t.Errorf("adopted v1 payload stored unframed: %v", err)
	}
}
