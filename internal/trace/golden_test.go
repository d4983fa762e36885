package trace_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"repro/internal/dracc"
	"repro/internal/omp"
	"repro/internal/specaccel"
	"repro/internal/trace"
)

// specConfig is the runtime the SPEC ACCEL proxy recordings use, as in the
// perfbench inputs.
var specConfig = omp.Config{NumThreads: 1, HostMem: 8 << 20, DeviceMem: 8 << 20}

// recordSPEC records one SPEC ACCEL proxy at the given scale.
func recordSPEC(tb testing.TB, w *specaccel.Workload, scale int) *trace.Trace {
	tb.Helper()
	rec := trace.NewRecorder()
	rt := omp.NewRuntime(specConfig, rec)
	if err := rt.Run(func(c *omp.Context) error { return w.Run(c, scale) }); err != nil {
		tb.Fatal(err)
	}
	return rec.Trace()
}

// recordingWriter keeps the bytes written to it and the length of every
// Write.
type recordingWriter struct {
	bytes.Buffer
	sizes []int
}

func (w *recordingWriter) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.Buffer.Write(p)
}

// jsonLines and jsonFramed are the reference encodings, written with
// encoding/json through a bufio.Writer exactly as the trace formats were
// first written.
func jsonLines(t *testing.T, tr *trace.Trace) *recordingWriter {
	t.Helper()
	out := &recordingWriter{}
	bw := bufio.NewWriter(out)
	enc := json.NewEncoder(bw)
	for i := range tr.Events {
		if err := enc.Encode(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return out
}

func jsonFramed(t *testing.T, tr *trace.Trace) *recordingWriter {
	t.Helper()
	out := &recordingWriter{}
	bw := bufio.NewWriter(out)
	bw.Write(trace.StreamHeader())
	for i := range tr.Events {
		payload, err := json.Marshal(&tr.Events[i])
		if err != nil {
			t.Fatal(err)
		}
		var prefix [8]byte
		binary.LittleEndian.PutUint32(prefix[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(prefix[4:8], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
		bw.Write(prefix[:])
		bw.Write(payload)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return out
}

// jsonDecodeLines decodes JSON lines with encoding/json.
func jsonDecodeLines(t *testing.T, data []byte) []trace.Event {
	t.Helper()
	var out []trace.Event
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var e trace.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// assertGolden requires every encoder to write exactly encoding/json's
// bytes for tr, in the same sequence of Writes (so a caller's buffer grows
// exactly as it did), and every decoder to read both encodings back into
// events deeply equal to what encoding/json decodes.
func assertGolden(t *testing.T, tr *trace.Trace) {
	t.Helper()
	refLines, refFramed := jsonLines(t, tr), jsonFramed(t, tr)
	wantLines, wantFramed := refLines.Bytes(), refFramed.Bytes()

	var lines, framed recordingWriter
	if err := tr.Save(&lines); err != nil {
		t.Fatal(err)
	}
	if err := tr.SaveFramed(&framed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lines.Bytes(), wantLines) {
		t.Fatalf("Save differs from encoding/json at byte %d", firstDiff(lines.Bytes(), wantLines))
	}
	if !bytes.Equal(framed.Bytes(), wantFramed) {
		t.Fatalf("SaveFramed differs from encoding/json at byte %d", firstDiff(framed.Bytes(), wantFramed))
	}
	if !reflect.DeepEqual(lines.sizes, refLines.sizes) || !reflect.DeepEqual(framed.sizes, refFramed.sizes) {
		t.Fatalf("Write sizes differ from encoding/json's through bufio:\nSave %v\nwant %v\nSaveFramed %v\nwant %v",
			lines.sizes, refLines.sizes, framed.sizes, refFramed.sizes)
	}
	spool := trace.StreamHeader()
	for i := range tr.Events {
		var err error
		if spool, err = trace.AppendEventFrame(spool, &tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(spool, wantFramed) {
		t.Fatalf("AppendEventFrame differs from encoding/json at byte %d", firstDiff(spool, wantFramed))
	}

	want := jsonDecodeLines(t, wantLines)
	for name, data := range map[string][]byte{"JSON lines": wantLines, "framed": wantFramed} {
		got, err := trace.Load(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertEventsEqual(t, "Load of "+name, got.Events, want)
	}
	var pushed []trace.Event
	dec := trace.NewPushDecoder(trace.Limits{})
	err := dec.Push(wantFramed, func(e *trace.Event) error {
		pushed = append(pushed, *e)
		return nil
	})
	if err == nil {
		err = dec.Finish()
	}
	if err != nil {
		t.Fatal(err)
	}
	assertEventsEqual(t, "PushDecoder", pushed, want)
}

func assertEventsEqual(t *testing.T, what string, got, want []trace.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, encoding/json decoded %d", what, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: event %d differs from encoding/json's:\n%+v\n%+v", what, i, got[i], want[i])
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestCodecGoldenDRACC proves the trace encoders and decoders byte- and
// value-compatible with encoding/json on every DRACC program, so spools,
// uploads and checkpoints written before the codec existed read and write
// unchanged.
func TestCodecGoldenDRACC(t *testing.T) {
	for _, b := range dracc.All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			t.Parallel()
			assertGolden(t, recordDRACC(t, b))
		})
	}
}

// TestCodecGoldenSPEC does the same on the five SPEC ACCEL proxies at
// scale 2, the paper's Fig. 8 inputs.
func TestCodecGoldenSPEC(t *testing.T) {
	for _, w := range specaccel.All() {
		w := w
		t.Run(fmt.Sprintf("%s@2", w.Name), func(t *testing.T) {
			t.Parallel()
			assertGolden(t, recordSPEC(t, w, 2))
		})
	}
}
