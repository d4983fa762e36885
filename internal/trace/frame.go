// CRC32C-framed trace encoding: the corruption-tolerant on-disk format.
//
// The JSON-lines format (Save/Load) is human-greppable but has no integrity
// protection: a flipped bit inside a JSON string silently changes a tag, and
// a truncated upload parses cleanly up to the cut. The framed format wraps
// every event in a checksummed length-prefixed frame behind a versioned
// header, so the decoder can tell exactly where an input went bad and say
// so — a structured CorruptionError with byte offset and reason — instead of
// panicking or mis-parsing. CRC32C (Castagnoli) is the same polynomial
// storage systems use for end-to-end integrity; hardware-accelerated on
// every platform Go targets.
//
// Layout:
//
//	header   "ARBT" | version (1 byte) | 3 reserved zero bytes
//	frame*   u32 LE payload length | u32 LE crc32c(payload) | payload
//
// where each payload is the JSON encoding of one Event (see codec.go).
// Readers never need to choose a format: Stream sniffs the magic and
// dispatches, so every existing Load/Replay path accepts both encodings
// transparently.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// traceMagic opens a framed trace file.
var traceMagic = []byte("ARBT")

// traceVersion is the current framed-format version.
const traceVersion = 1

// frameHeaderSize is the per-frame prefix: u32 length + u32 crc32c.
const frameHeaderSize = 8

// MaxFramePayload bounds a single frame's payload so a corrupted length
// field cannot trigger a giant allocation before the CRC check gets a
// chance to reject it.
const MaxFramePayload = 64 << 20

// castagnoli is the CRC32C table (iSCSI/ext4 polynomial).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptionError reports malformed framed input: where the decoder was in
// the byte stream and what it found there. The decoder guarantees it never
// panics on corrupted input — every failure mode (bad header, impossible
// length, checksum mismatch, torn final frame, invalid payload) surfaces as
// one of these.
type CorruptionError struct {
	// Offset is the byte offset of the frame (or header) the failure was
	// detected in.
	Offset int64
	// Reason is a short machine-independent description of the failure.
	Reason string
	// Err is the underlying cause, when one exists (an io or json error).
	Err error
}

// Error implements error.
func (e *CorruptionError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("trace: corrupt input at byte %d: %s: %v", e.Offset, e.Reason, e.Err)
	}
	return fmt.Sprintf("trace: corrupt input at byte %d: %s", e.Offset, e.Reason)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *CorruptionError) Unwrap() error { return e.Err }

// SaveFramed writes the trace in the CRC32C-framed format. Prefer this over
// Save for spool files and any trace that crosses an unreliable medium: a
// reader can detect — and localize — any later corruption.
func (t *Trace) SaveFramed(w io.Writer) error {
	return t.write(w, StreamHeader(), appendFrame)
}

// appendFrame appends e's frame (length, CRC32C, JSON payload) to dst.
func appendFrame(dst []byte, e *Event) []byte {
	start := len(dst)
	dst = appendEvent(append(dst, make([]byte, frameHeaderSize)...), e)
	payload := dst[start+frameHeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// payloadError reports a frame whose CRC-valid payload decodeEvent refused:
// malformed JSON, or a well-formed event that fails validation.
func payloadError(off int64, err error) *CorruptionError {
	var de *decodeError
	if errors.As(err, &de) {
		return &CorruptionError{Offset: off, Reason: "frame payload is not a valid event", Err: err}
	}
	return &CorruptionError{Offset: off, Reason: "frame payload fails event validation", Err: err}
}

// decodeFramed decodes a framed trace from br, whose next bytes must be the
// "ARBT" header, emitting validated events in batches exactly like the
// JSON-lines path. All corruption is reported as a *CorruptionError carrying
// the byte offset; limits are enforced with the same sentinel errors as
// Stream.
func decodeFramed(br *bufio.Reader, lim Limits, emit func(batch []Event) error) error {
	var off int64
	hdr := make([]byte, len(traceMagic)+4)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return &CorruptionError{Offset: off, Reason: "short header", Err: err}
	}
	if !bytes.Equal(hdr[:4], traceMagic) {
		return &CorruptionError{Offset: off, Reason: fmt.Sprintf("bad magic %q", hdr[:4])}
	}
	if hdr[4] != traceVersion {
		return &CorruptionError{Offset: off, Reason: fmt.Sprintf("unsupported version %d (have %d)", hdr[4], traceVersion)}
	}
	off += int64(len(hdr))

	count := 0
	batch := make([]Event, 0, streamBatchSize)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		out := batch
		batch = make([]Event, 0, streamBatchSize)
		return emit(out)
	}
	// The payload buffer is reused across frames: decodeEvent copies every
	// string it keeps out of it.
	var buf []byte
	in := newInterner()
	var prefix [frameHeaderSize]byte
	for {
		n, err := io.ReadFull(br, prefix[:])
		if err == io.EOF {
			// Clean end: the previous frame was the last one.
			return flush()
		}
		if err != nil {
			return &CorruptionError{Offset: off, Reason: fmt.Sprintf("torn frame header (%d of %d bytes)", n, frameHeaderSize), Err: err}
		}
		length := binary.LittleEndian.Uint32(prefix[0:4])
		sum := binary.LittleEndian.Uint32(prefix[4:8])
		if length > MaxFramePayload {
			return &CorruptionError{Offset: off, Reason: fmt.Sprintf("frame length %d exceeds limit %d", length, MaxFramePayload)}
		}
		if lim.MaxBytes > 0 && off+frameHeaderSize+int64(length) > lim.MaxBytes {
			return fmt.Errorf("%w: more than %d bytes", ErrTooManyBytes, lim.MaxBytes)
		}
		if lim.MaxEvents > 0 && count >= lim.MaxEvents {
			return fmt.Errorf("%w: more than %d events (byte %d)", ErrTooManyEvents, lim.MaxEvents, off)
		}
		if cap(buf) < int(length) {
			buf = make([]byte, length)
		}
		payload := buf[:length]
		if n, err := io.ReadFull(br, payload); err != nil {
			return &CorruptionError{Offset: off, Reason: fmt.Sprintf("torn frame payload (%d of %d bytes)", n, length), Err: err}
		}
		if got := crc32.Checksum(payload, castagnoli); got != sum {
			return &CorruptionError{Offset: off, Reason: fmt.Sprintf("checksum mismatch: frame says %#08x, payload is %#08x", sum, got)}
		}
		batch = append(batch, Event{})
		if err := decodeEvent(payload, &batch[len(batch)-1], in); err != nil {
			return payloadError(off, err)
		}
		count++
		off += frameHeaderSize + int64(length)
		if len(batch) == streamBatchSize {
			if ferr := flush(); ferr != nil {
				return ferr
			}
		}
	}
}
