package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte(`{"v":1}`)
	resp := []byte(`{"spec_key":"k"}` + "\n")
	p, r, err := decodeFrame(encodeFrame(payload, resp))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, payload) || !bytes.Equal(r, resp) {
		t.Errorf("round trip diverged: %q %q", p, r)
	}

	// Payload-only frame (the shape a v1 upgrade writes).
	p, r, err = decodeFrame(encodeFrame(payload, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, payload) || r != nil {
		t.Errorf("payload-only frame = %q, %q; want payload, nil", p, r)
	}
}

func TestDecodeFrameRejectsDamage(t *testing.T) {
	good := encodeFrame([]byte(`{"v":1}`), []byte("resp"))

	if _, _, err := decodeFrame([]byte(`{"version":1}`)); !errors.Is(err, errNotFramed) {
		t.Errorf("bare JSON: err = %v, want errNotFramed", err)
	}
	if _, _, err := decodeFrame(good[:frameHeaderLen-2]); err == nil || errors.Is(err, errNotFramed) {
		t.Errorf("truncated header: err = %v, want hard error", err)
	}
	if _, _, err := decodeFrame(good[:len(good)-1]); err == nil || errors.Is(err, errNotFramed) {
		t.Errorf("truncated body: err = %v, want hard error", err)
	}

	bad := append([]byte(nil), good...)
	bad[4] = 99 // version
	if _, _, err := decodeFrame(bad); err == nil {
		t.Error("wrong version accepted")
	}

	bad = append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xff // flip a resp byte -> CRC mismatch
	if _, _, err := decodeFrame(bad); err == nil {
		t.Error("CRC mismatch accepted")
	}
}

// TestV1BlobUpgrade is the version-negotiation contract: a bare-JSON
// blob written by a pre-frame build has no response section, so
// LoadRaw misses it and the caller recomputes.
func TestV1BlobUpgrade(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(12)
	key := spec.Key()
	s := mustOpen(t, dir, 0)
	s.Store("WSE-2", key, testStored(12))
	s.Snapshot()
	s.Close()

	// Strip the frame: the bare payload is byte-for-byte what a v1
	// build wrote.
	name := address("WSE-2", key)
	path := filepath.Join(dir, name[:2], name+".json")
	framed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload, _, err := decodeFrame(framed)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, 0)
	if _, ok := s2.LoadRaw("WSE-2", key); ok {
		t.Fatal("LoadRaw hit on a v1 blob (it has no response section)")
	}
}

// TestStoreWithResponseRoundTrip covers the response section end to
// end: persist an outcome with its bytes in one put, read them back raw
// across a reopen, and keep them through a payload rewrite (the
// carry-forward in the writer).
func TestStoreWithResponseRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(12)
	key := spec.Key()
	resp := []byte(`{"platform":"wse","spec_key":"` + key + `"}` + "\n")

	s := mustOpen(t, dir, 0)
	s.StoreWithResponse("WSE-2", key, testStored(12), resp)
	s.Snapshot()

	got, ok := s.LoadRaw("WSE-2", key)
	if !ok || !bytes.Equal(got, resp) {
		t.Fatalf("LoadRaw = %q, %v; want the stored response", got, ok)
	}
	st := s.Stats()
	if st.RawHits != 1 || st.RawMisses != 0 || st.Puts != 1 {
		t.Errorf("raw hits/misses = %d/%d, puts = %d; want 1/0, 1 put", st.RawHits, st.RawMisses, st.Puts)
	}
	s.Close()

	// The bytes survive a restart.
	s2 := mustOpen(t, dir, 0)
	if got, ok := s2.LoadRaw("WSE-2", key); !ok || !bytes.Equal(got, resp) {
		t.Fatalf("LoadRaw after reopen = %q, %v", got, ok)
	}
	// And survive a payload rewrite of the same blob.
	s2.Store("WSE-2", key, testStored(12))
	s2.Snapshot()
	if got, ok := s2.LoadRaw("WSE-2", key); !ok || !bytes.Equal(got, resp) {
		t.Fatalf("LoadRaw after payload rewrite = %q, %v (response section lost)", got, ok)
	}
}

// TestCorruptFrameIsAMiss pins the delete-and-miss semantics on the
// raw path: a frame failing its CRC is deleted, counted corrupt, and
// reported as a miss.
func TestCorruptFrameIsAMiss(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(12)
	key := spec.Key()
	s := mustOpen(t, dir, 0)
	s.StoreWithResponse("WSE-2", key, testStored(12), []byte("resp-bytes"))
	s.Snapshot()
	s.Close()

	name := address("WSE-2", key)
	path := filepath.Join(dir, name[:2], name+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, 0)
	if _, ok := s2.LoadRaw("WSE-2", key); ok {
		t.Fatal("corrupt frame served raw")
	}
	st := s2.Stats()
	if st.Corrupt != 1 || st.RawMisses != 1 {
		t.Errorf("stats after corruption = %+v", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt frame not deleted")
	}
}
