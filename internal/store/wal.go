package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// WAL framing: every record is appended as
//
//	uint32 LE payload length | uint32 LE CRC-32 (IEEE) of payload | payload
//
// Replay walks frames from the front and stops at the first frame that does
// not check out — a short header, an implausible length, a truncated body or
// a checksum mismatch. Everything before that point is trusted (it was
// written under the store lock, in one piece); everything after is a torn
// tail — a writer that crashed mid-append, or frames written without a sync
// that a power loss left half on the device — and is healed by truncation
// before the next append.

// frameHeader is the fixed per-record overhead in bytes.
const frameHeader = 8

// maxFramePayload bounds a single record, so a corrupted length field cannot
// make replay attempt a multi-gigabyte read. Job outputs are study reports
// (tens of KB); 64 MiB is far beyond any legitimate record.
const maxFramePayload = 64 << 20

// appendFrame encodes one payload as a frame into buf and returns the
// extended buffer.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeader]byte
	putFrameHeader(hdr[:], payload)
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// putFrameHeader fills hdr, frameHeader bytes, for payload.
func putFrameHeader(hdr, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
}

// replayFrames walks the frames of data, calling fn on each checksummed
// payload, and returns the number of bytes consumed by complete, valid
// frames. It never fails on a malformed tail — it stops — but it propagates
// fn's error (with the bytes consumed before the failing record).
func replayFrames(data []byte, fn func(payload []byte) error) (int, error) {
	off := 0
	for {
		rest := data[off:]
		if len(rest) < frameHeader {
			return off, nil
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if n > maxFramePayload || int(n) > len(rest)-frameHeader {
			return off, nil
		}
		payload := rest[frameHeader : frameHeader+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return off, nil
		}
		if err := fn(payload); err != nil {
			return off, err
		}
		off += frameHeader + int(n)
	}
}

// errBadFrame reports a frame that does not check out in a file that, unlike
// the WAL, has no business ending in a torn tail.
var errBadFrame = errors.New("store: bad frame")

// readFrame reads the next frame from r through buf and returns its payload,
// which aliases buf and is valid until the next call. It returns io.EOF at a
// clean end of input and errBadFrame for anything replayFrames would stop at.
// This is the streaming counterpart of replayFrames, for the snapshot: one
// record in memory at a time, and a corrupt length field costs no more memory
// than the bytes that are really there.
func readFrame(r io.Reader, buf *bytes.Buffer) ([]byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, errBadFrame
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > maxFramePayload {
		return nil, errBadFrame
	}
	buf.Reset()
	if _, err := io.CopyN(buf, r, int64(n)); err != nil {
		return nil, errBadFrame
	}
	if crc32.ChecksumIEEE(buf.Bytes()) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, errBadFrame
	}
	return buf.Bytes(), nil
}
