// Checkpoint files: durable snapshots of a replay in progress.
//
// A checkpoint pairs a position in the event stream (NextEvent) with the
// analyzer's serialized state at that position, taken at an epoch boundary
// so the state is a consistent prefix of the analysis (see ReplayDurable).
// The file reuses the trace framing machinery — a versioned magic header
// followed by CRC32C frames — so torn or bit-flipped checkpoints are
// detected and reported, never restored.
//
// Layout:
//
//	header   "ARBC" | version (1 byte) | 3 reserved zero bytes
//	frame    u32 LE length | u32 LE crc32c | JSON(Checkpoint sans State)
//	frame    u32 LE length | u32 LE crc32c | State bytes
//
// WriteFile is atomic: the checkpoint is written to a temp file, fsynced,
// renamed over the destination, and the directory fsynced, so a crash
// mid-write leaves either the previous checkpoint or the new one — never a
// torn file at the final path.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"
)

// checkpointMagic opens a checkpoint file.
var checkpointMagic = []byte("ARBC")

// checkpointVersion is the current checkpoint-format version.
const checkpointVersion = 1

// Checkpoint is one durable snapshot of a replay in progress.
type Checkpoint struct {
	// JobID identifies the job the snapshot belongs to.
	JobID string `json:"jobId"`
	// Tool is the analyzer the state was captured from; restoring into a
	// different tool is rejected by the caller.
	Tool string `json:"tool"`
	// NextEvent is the index of the first event NOT yet applied: resuming
	// replays Events[NextEvent:]. It is always an epoch boundary.
	NextEvent uint64 `json:"nextEvent"`
	// Events is the total event count of the trace the snapshot was taken
	// against, a cheap sanity check at restore time.
	Events uint64 `json:"events"`
	// Created is when the snapshot was written.
	Created time.Time `json:"created"`
	// State is the analyzer's serialized state (tools.Checkpointer), opaque
	// to this package.
	State json.RawMessage `json:"-"`
}

// writeFrame writes one CRC32C frame.
func writeFrame(w io.Writer, payload []byte) error {
	var prefix [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(prefix[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(prefix[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(prefix[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads and verifies one CRC32C frame starting at byte offset off,
// returning the payload and the offset just past the frame.
func readFrame(r io.Reader, off int64) ([]byte, int64, error) {
	var prefix [frameHeaderSize]byte
	if n, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, off, &CorruptionError{Offset: off, Reason: fmt.Sprintf("torn frame header (%d of %d bytes)", n, frameHeaderSize), Err: err}
	}
	length := binary.LittleEndian.Uint32(prefix[0:4])
	sum := binary.LittleEndian.Uint32(prefix[4:8])
	if length > MaxFramePayload {
		return nil, off, &CorruptionError{Offset: off, Reason: fmt.Sprintf("frame length %d exceeds limit %d", length, MaxFramePayload)}
	}
	payload := make([]byte, length)
	if n, err := io.ReadFull(r, payload); err != nil {
		return nil, off, &CorruptionError{Offset: off, Reason: fmt.Sprintf("torn frame payload (%d of %d bytes)", n, length), Err: err}
	}
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		return nil, off, &CorruptionError{Offset: off, Reason: fmt.Sprintf("checksum mismatch: frame says %#08x, payload is %#08x", sum, got)}
	}
	return payload, off + frameHeaderSize + int64(length), nil
}

// Encode serializes the checkpoint into the framed on-disk layout (header,
// metadata frame, state frame). The same bytes WriteFile persists are also
// the fleet protocol's wire format: a worker posts Encode's output to the
// coordinator, which verifies it with DecodeCheckpoint before ingesting.
func (ck *Checkpoint) Encode() ([]byte, error) {
	meta, err := json.Marshal(ck)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Grow(len(checkpointMagic) + 4 + 2*frameHeaderSize + len(meta) + len(ck.State))
	hdr := make([]byte, len(checkpointMagic)+4)
	copy(hdr, checkpointMagic)
	hdr[4] = checkpointVersion
	buf.Write(hdr)
	if err := writeFrame(&buf, meta); err != nil {
		return nil, err
	}
	if err := writeFrame(&buf, ck.State); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeCheckpoint parses and CRC-verifies checkpoint bytes produced by
// Encode. Corruption anywhere is a *CorruptionError with the byte offset.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	return decodeCheckpoint(bytes.NewReader(data))
}

// ReadCheckpointFile reads and CRC-verifies a checkpoint file holding
// Encode's bytes. Corruption anywhere — header, metadata frame, state frame —
// is reported as a *CorruptionError with the byte offset; it never panics.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return decodeCheckpoint(bufio.NewReaderSize(f, 64<<10))
}

// decodeCheckpoint reads the framed checkpoint layout from r.
func decodeCheckpoint(br io.Reader) (*Checkpoint, error) {
	var off int64
	hdr := make([]byte, len(checkpointMagic)+4)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, &CorruptionError{Offset: off, Reason: "short checkpoint header", Err: err}
	}
	if !bytes.Equal(hdr[:4], checkpointMagic) {
		return nil, &CorruptionError{Offset: off, Reason: fmt.Sprintf("bad magic %q", hdr[:4])}
	}
	if hdr[4] != checkpointVersion {
		return nil, &CorruptionError{Offset: off, Reason: fmt.Sprintf("unsupported version %d (have %d)", hdr[4], checkpointVersion)}
	}
	off += int64(len(hdr))

	meta, off, err := readFrame(br, off)
	if err != nil {
		return nil, err
	}
	ck := &Checkpoint{}
	if jerr := json.Unmarshal(meta, ck); jerr != nil {
		return nil, &CorruptionError{Offset: off, Reason: "checkpoint metadata is not valid JSON", Err: jerr}
	}
	state, _, err := readFrame(br, off)
	if err != nil {
		return nil, err
	}
	ck.State = state
	return ck, nil
}
