// Push-based framed decode: the wire-protocol half of the CRC32C format.
//
// decodeFramed (frame.go) pulls from an io.Reader, which fits batch files
// but not a live network session: there the transport hands the decoder
// arbitrary byte chunks as they arrive, and blocking for "the rest of the
// frame" would wedge the accept loop. PushDecoder inverts the control flow —
// callers Push chunks, the decoder buffers the incomplete tail and emits
// every event whose frame has fully arrived and passed its CRC. Chunk
// boundaries are completely decoupled from frame boundaries: a frame may
// arrive split across a dozen chunks or bundled with a hundred others.
//
// All corruption is reported with the same *CorruptionError (absolute byte
// offset + reason) as the pull decoder, and a decoder that has reported an
// error stays failed: the byte position is unrecoverable, so feeding more
// bytes cannot resynchronize.
package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/ompt"
)

// PushDecoder incrementally decodes the CRC32C-framed trace encoding
// (SaveFramed's output) from caller-pushed byte chunks. Not safe for
// concurrent use; a streaming session owns one decoder.
type PushDecoder struct {
	lim Limits

	// buf holds bytes not yet consumed by a complete header or frame.
	buf []byte
	// off is the absolute stream offset of buf[0] — the offset of the next
	// frame (or the header) to decode, and the position corruption errors
	// report.
	off int64
	// headerDone flips once the "ARBT" header has been validated.
	headerDone bool
	// events counts fully decoded events.
	events int
	// failed, once set, is returned by every later Push and Finish.
	failed error
	// in interns the strings of every event this decoder yields.
	in *interner
}

// NewPushDecoder returns a decoder enforcing lim (zero = unlimited) with the
// same sentinel errors as Stream.
func NewPushDecoder(lim Limits) *PushDecoder {
	return &PushDecoder{lim: lim, in: newInterner()}
}

// Offset returns the absolute offset of the first byte not yet consumed by a
// completed frame. After a crash this is where a spooled byte stream stops
// being trustworthy: truncating a spool file to Offset removes a torn tail
// without touching any decoded frame.
func (d *PushDecoder) Offset() int64 { return d.off }

// Pending returns how many buffered bytes await the rest of their frame. A
// nonzero value at end-of-stream means the final frame is torn.
func (d *PushDecoder) Pending() int { return len(d.buf) }

// Events returns the number of events decoded so far.
func (d *PushDecoder) Events() int { return d.events }

// fail records and returns a terminal decode error.
func (d *PushDecoder) fail(err error) error {
	d.failed = err
	return err
}

// Push appends chunk to the decode buffer and emits every event whose frame
// is now complete and CRC-valid, in stream order. emit may retain the event.
// A non-nil error — corruption, a limit breach, or an emit failure — is
// terminal: the decoder stays failed and later calls return the same error
// (emit errors are returned as-is but still poison the decoder, since an
// unknown number of events were already consumed).
func (d *PushDecoder) Push(chunk []byte, emit func(e *Event) error) error {
	if d.failed != nil {
		return d.failed
	}
	// Decode straight out of the caller's chunk unless a partial frame is
	// already buffered.
	data := chunk
	if len(d.buf) > 0 {
		d.buf = append(d.buf, chunk...)
		data = d.buf
	}
	if !d.headerDone && len(data) >= len(traceMagic)+4 {
		hdrLen := len(traceMagic) + 4
		if !bytes.Equal(data[:len(traceMagic)], traceMagic) {
			return d.fail(&CorruptionError{Offset: d.off, Reason: fmt.Sprintf("bad magic %q", data[:len(traceMagic)])})
		}
		if v := data[len(traceMagic)]; v != traceVersion {
			return d.fail(&CorruptionError{Offset: d.off, Reason: fmt.Sprintf("unsupported version %d (have %d)", v, traceVersion)})
		}
		data = data[hdrLen:]
		d.off += int64(hdrLen)
		d.headerDone = true
	}
	for d.headerDone && len(data) >= frameHeaderSize {
		length := binary.LittleEndian.Uint32(data[0:4])
		sum := binary.LittleEndian.Uint32(data[4:8])
		if length > MaxFramePayload {
			return d.fail(&CorruptionError{Offset: d.off, Reason: fmt.Sprintf("frame length %d exceeds limit %d", length, MaxFramePayload)})
		}
		if d.lim.MaxBytes > 0 && d.off+frameHeaderSize+int64(length) > d.lim.MaxBytes {
			return d.fail(fmt.Errorf("%w: more than %d bytes", ErrTooManyBytes, d.lim.MaxBytes))
		}
		if len(data) < frameHeaderSize+int(length) {
			break // frame not complete yet; wait for the next chunk
		}
		if d.lim.MaxEvents > 0 && d.events >= d.lim.MaxEvents {
			return d.fail(fmt.Errorf("%w: more than %d events (byte %d)", ErrTooManyEvents, d.lim.MaxEvents, d.off))
		}
		payload := data[frameHeaderSize : frameHeaderSize+int(length)]
		if got := crc32.Checksum(payload, castagnoli); got != sum {
			return d.fail(&CorruptionError{Offset: d.off, Reason: fmt.Sprintf("checksum mismatch: frame says %#08x, payload is %#08x", sum, got)})
		}
		e := new(Event)
		if err := decodeEvent(payload, e, d.in); err != nil {
			return d.fail(payloadError(d.off, err))
		}
		data = data[frameHeaderSize+int(length):]
		d.off += frameHeaderSize + int64(length)
		d.events++
		if err := emit(e); err != nil {
			d.failed = err
			return err
		}
	}
	// Keep the unconsumed tail in a buffer of its own: it must not alias the
	// caller's chunk, and the consumed prefix must not stay pinned.
	if len(data) > 0 {
		d.buf = append(make([]byte, 0, len(data)), data...)
	} else {
		d.buf = nil
	}
	return nil
}

// Finish declares end-of-stream. Buffered bytes that never completed a frame
// — or a stream too short for its header — are a torn tail, reported as a
// *CorruptionError at the offset the unfinished frame began.
func (d *PushDecoder) Finish() error {
	if d.failed != nil {
		return d.failed
	}
	if !d.headerDone {
		return d.fail(&CorruptionError{Offset: d.off, Reason: fmt.Sprintf("short header (%d of %d bytes)", len(d.buf), len(traceMagic)+4)})
	}
	if len(d.buf) > 0 {
		return d.fail(&CorruptionError{Offset: d.off, Reason: fmt.Sprintf("torn final frame (%d buffered bytes)", len(d.buf))})
	}
	return nil
}

// StreamHeader returns the framed-format file header ("ARBT", version,
// reserved bytes) that opens every framed byte stream. Spool writers use it
// to start a file the push decoder will accept.
func StreamHeader() []byte {
	hdr := make([]byte, len(traceMagic)+4)
	copy(hdr, traceMagic)
	hdr[len(traceMagic)] = traceVersion
	return hdr
}

// AppendEventFrame appends e's CRC32C frame (length, checksum, JSON payload)
// to dst and returns the extended slice — the append-style counterpart of
// SaveFramed's per-event encoding, for spools built one event at a time.
// The error is always nil: every Event encodes.
func AppendEventFrame(dst []byte, e *Event) ([]byte, error) {
	return appendFrame(dst, e), nil
}

// Dispatch sends the event through the dispatcher exactly as a batch replay
// would: accesses and data ops are stamped with their Seq-derived replay
// clock, so findings from an event stream dispatched one push at a time are
// byte-identical to replaying the same events from a file.
func (e *Event) Dispatch(d *ompt.Dispatcher) error {
	return dispatchEvent(d, e)
}
