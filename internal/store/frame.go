package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Blob frame (format v2). A v1 blob is bare JSON and always begins
// with '{'; a v2 blob begins with a 4-byte magic that no JSON document
// can start with, so the two formats are distinguished by the first
// byte alone and share the .json path scheme:
//
//	offset  size  field
//	0       4     magic "DBLB"
//	4       2     format version (little-endian, currently 2)
//	6       4     payload length (little-endian)
//	10      4     response length (little-endian)
//	14      4     CRC-32 (IEEE) over payload ‖ response
//	18      —     payload: the canonical JSON blob (what v1 stored whole)
//	18+P    —     response: pre-marshaled /v1/run body for this outcome
//
// The payload section is the outcome's canonical record, which export
// and provenance checks decode; the response section is an optional
// byte-level acceleration LoadRaw serves without any JSON work. The
// CRC covers both sections so a torn rename or bit rot is detected
// before either is trusted; any frame that fails validation is corrupt
// and keeps the store's delete-and-miss semantics.

const (
	frameVersion   = 2
	frameHeaderLen = 18
	// maxFrameSection bounds each section length read from a header so
	// a corrupt length field cannot drive a giant allocation.
	maxFrameSection = 1 << 30
)

var frameMagic = [4]byte{'D', 'B', 'L', 'B'}

// errNotFramed marks bytes with no frame magic: a v1 bare-JSON blob,
// which carries no response section.
var errNotFramed = errors.New("store: blob is not framed (v1 bare JSON)")

// encodeFrame assembles a v2 frame. resp may be nil/empty: the frame
// then carries only the payload (the shape a plain Store write
// produces for a fresh blob).
func encodeFrame(payload, resp []byte) []byte {
	b := make([]byte, frameHeaderLen+len(payload)+len(resp))
	copy(b, frameMagic[:])
	binary.LittleEndian.PutUint16(b[4:], frameVersion)
	binary.LittleEndian.PutUint32(b[6:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[10:], uint32(len(resp)))
	copy(b[frameHeaderLen:], payload)
	copy(b[frameHeaderLen+len(payload):], resp)
	binary.LittleEndian.PutUint32(b[14:], crc32.ChecksumIEEE(b[frameHeaderLen:]))
	return b
}

// decodeFrame splits a blob file into its payload and response
// sections. Bytes without the magic return errNotFramed (v1 blob);
// a frame with a bad version, impossible lengths, or a CRC mismatch
// returns a hard error the caller treats as corruption. The returned
// slices alias data.
func decodeFrame(data []byte) (payload, resp []byte, err error) {
	if len(data) < len(frameMagic) || [4]byte(data[:4]) != frameMagic {
		return nil, nil, errNotFramed
	}
	if len(data) < frameHeaderLen {
		return nil, nil, fmt.Errorf("store: truncated frame header (%d bytes)", len(data))
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != frameVersion {
		return nil, nil, fmt.Errorf("store: unsupported frame version %d", v)
	}
	pl := int64(binary.LittleEndian.Uint32(data[6:]))
	rl := int64(binary.LittleEndian.Uint32(data[10:]))
	if pl > maxFrameSection || rl > maxFrameSection ||
		int64(len(data)) != frameHeaderLen+pl+rl {
		return nil, nil, fmt.Errorf("store: frame length mismatch (file %d, sections %d+%d)", len(data), pl, rl)
	}
	body := data[frameHeaderLen:]
	if crc := crc32.ChecksumIEEE(body); crc != binary.LittleEndian.Uint32(data[14:]) {
		return nil, nil, errors.New("store: frame CRC mismatch")
	}
	if rl == 0 {
		return body[:pl], nil, nil
	}
	return body[:pl], body[pl:], nil
}
