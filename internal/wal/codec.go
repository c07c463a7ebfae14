package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// Log encoding. A segment file is a fixed header followed by a sequence of
// CRC-framed records:
//
//	segment := magic "SDLW" format(1 byte) frame*
//	frame   := payloadLen(uint32 LE) crc32c(uint32 LE, over payload) payload
//	payload := version(uvarint) owner(uvarint) nIns(uvarint) nDel(uvarint)
//	           inserted* deleted*
//	inst    := id(uvarint) owner(uvarint) tuple
//
// Tuples use the repository-wide binary encoding (internal/tuple). The CRC
// is Castagnoli (CRC-32C), computed over the payload only: a torn write —
// a frame whose length prefix or body did not reach the disk in full — is
// detected either by the declared length exceeding the remaining bytes or
// by a checksum mismatch, and scanning stops at the last complete frame.
var (
	segmentMagic = [4]byte{'S', 'D', 'L', 'W'}

	// ErrCorrupt reports a frame that is present but not decodable: a bad
	// checksum, an oversized length prefix, or a malformed payload. Scans
	// treat it exactly like a truncated tail — the segment ends at the
	// previous frame.
	ErrCorrupt = errors.New("wal: corrupt frame")
)

const (
	segmentFormat = 1
	// segmentHeaderLen is magic + format byte.
	segmentHeaderLen = 5
	// SegmentHeaderLen is the exported segment header size; crash-injection
	// harnesses use it to aim truncation cuts at the record stream.
	SegmentHeaderLen = segmentHeaderLen
	// frameHeaderLen is payloadLen + crc.
	frameHeaderLen = 8
	// maxPayload bounds a frame's declared payload so a corrupt length
	// prefix cannot drive a huge allocation.
	maxPayload = 1 << 26
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func appendInstance(dst []byte, inst dataspace.Instance) []byte {
	dst = binary.AppendUvarint(dst, uint64(inst.ID))
	dst = binary.AppendUvarint(dst, uint64(inst.Owner))
	return tuple.AppendTuple(dst, inst.Tuple)
}

// decodeRecordPayload decodes one frame payload. The payload must be
// consumed exactly; trailing bytes mean the frame was mis-framed.
func decodeRecordPayload(b []byte) (dataspace.CommitRecord, error) {
	var rec dataspace.CommitRecord
	next := func() (uint64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, fmt.Errorf("%w: truncated varint", ErrCorrupt)
		}
		b = b[n:]
		return v, nil
	}
	version, err := next()
	if err != nil {
		return rec, err
	}
	owner, err := next()
	if err != nil {
		return rec, err
	}
	nIns, err := next()
	if err != nil {
		return rec, err
	}
	nDel, err := next()
	if err != nil {
		return rec, err
	}
	if nIns+nDel > uint64(len(b)) {
		// Each instance needs at least one byte; an impossible count is a
		// corrupt frame, not an allocation request.
		return rec, fmt.Errorf("%w: implausible effect counts %d+%d", ErrCorrupt, nIns, nDel)
	}
	rec.Version = version
	rec.Owner = tuple.ProcessID(owner)
	decodeInst := func() (dataspace.Instance, error) {
		id, err := next()
		if err != nil {
			return dataspace.Instance{}, err
		}
		own, err := next()
		if err != nil {
			return dataspace.Instance{}, err
		}
		t, n, terr := tuple.DecodeTuple(b)
		if terr != nil {
			return dataspace.Instance{}, fmt.Errorf("%w: %v", ErrCorrupt, terr)
		}
		b = b[n:]
		return dataspace.Instance{ID: tuple.ID(id), Owner: tuple.ProcessID(own), Tuple: t}, nil
	}
	if nIns > 0 {
		rec.Inserted = make([]dataspace.Instance, 0, nIns)
		for i := uint64(0); i < nIns; i++ {
			inst, err := decodeInst()
			if err != nil {
				return rec, err
			}
			rec.Inserted = append(rec.Inserted, inst)
		}
	}
	if nDel > 0 {
		rec.Deleted = make([]dataspace.Instance, 0, nDel)
		for i := uint64(0); i < nDel; i++ {
			inst, err := decodeInst()
			if err != nil {
				return rec, err
			}
			rec.Deleted = append(rec.Deleted, inst)
		}
	}
	if len(b) != 0 {
		return rec, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(b))
	}
	return rec, nil
}

// appendRecordFrame appends rec's whole frame to dst: the payload is encoded
// in place behind a reserved header, which is then patched with the
// payload's length and CRC — no payload scratch, no second copy.
func appendRecordFrame(dst []byte, rec dataspace.CommitRecord) []byte {
	start := len(dst)
	var hdr [frameHeaderLen]byte
	dst = append(dst, hdr[:]...)
	dst = binary.AppendUvarint(dst, rec.Version)
	dst = binary.AppendUvarint(dst, uint64(rec.Owner))
	dst = binary.AppendUvarint(dst, uint64(len(rec.Inserted)))
	dst = binary.AppendUvarint(dst, uint64(len(rec.Deleted)))
	for _, inst := range rec.Inserted {
		dst = appendInstance(dst, inst)
	}
	for _, inst := range rec.Deleted {
		dst = appendInstance(dst, inst)
	}
	payload := dst[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// scanFrames decodes the record stream of a segment body (everything after
// the segment header). It stops at the first torn or corrupt frame and
// NEVER returns a record from beyond it — later frames may be complete, but
// without the broken predecessor the suffix is not a prefix of the durable
// history. The returned tail length counts the bytes from the cut to the
// end of the body.
func scanFrames(body []byte) (recs []dataspace.CommitRecord, tail int) {
	off := 0
	for {
		rest := body[off:]
		if len(rest) == 0 {
			return recs, 0
		}
		if len(rest) < frameHeaderLen {
			return recs, len(body) - off
		}
		n := int(binary.LittleEndian.Uint32(rest))
		if n > maxPayload || len(rest) < frameHeaderLen+n {
			return recs, len(body) - off
		}
		payload := rest[frameHeaderLen : frameHeaderLen+n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
			return recs, len(body) - off
		}
		rec, err := decodeRecordPayload(payload)
		if err != nil {
			return recs, len(body) - off
		}
		recs = append(recs, rec)
		off += frameHeaderLen + n
	}
}
