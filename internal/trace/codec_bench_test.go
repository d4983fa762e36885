package trace_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/specaccel"
	"repro/internal/tools"
	"repro/internal/trace"
)

// BenchmarkCodec measures every codec path and a warm ARBALEST replay on
// the same trace in the same iteration: the 503.postencil recording at
// scale 2 (the paper's Fig. 8 input). It reports each as ns per event, plus
// jsonl/replay, the JSON-lines decode cost over the warm replay cost. That
// ratio is taken within one run, so the CI gate on it holds on any machine.
func BenchmarkCodec(b *testing.B) {
	tr := recordSPEC(b, specaccel.ByName("503.postencil"), 2)
	n := float64(len(tr.Events))
	var lines, framed bytes.Buffer
	if err := tr.Save(&lines); err != nil {
		b.Fatal(err)
	}
	if err := tr.SaveFramed(&framed); err != nil {
		b.Fatal(err)
	}
	if err := tr.Replay(tools.NewArbalestFull(nil)); err != nil { // warm the column cache
		b.Fatal(err)
	}

	var jsonl, fram, push, enc, replay time.Duration
	timed := func(d *time.Duration, f func() error) {
		start := time.Now()
		if err := f(); err != nil {
			b.Fatal(err)
		}
		*d += time.Since(start)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timed(&jsonl, func() error {
			_, err := trace.Load(bytes.NewReader(lines.Bytes()))
			return err
		})
		timed(&fram, func() error {
			_, err := trace.Load(bytes.NewReader(framed.Bytes()))
			return err
		})
		timed(&push, func() error {
			dec := trace.NewPushDecoder(trace.Limits{})
			if err := dec.Push(framed.Bytes(), func(*trace.Event) error { return nil }); err != nil {
				return err
			}
			return dec.Finish()
		})
		timed(&enc, func() error {
			var buf bytes.Buffer
			buf.Grow(framed.Len())
			return tr.SaveFramed(&buf)
		})
		a := tools.NewArbalestFull(nil)
		timed(&replay, func() error { return tr.Replay(a) })
		a.Release()
	}
	perEv := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / n / float64(b.N) }
	b.ReportMetric(perEv(jsonl), "jsonl-ns/ev")
	b.ReportMetric(perEv(fram), "framed-ns/ev")
	b.ReportMetric(perEv(push), "push-ns/ev")
	b.ReportMetric(perEv(enc), "encode-ns/ev")
	b.ReportMetric(perEv(replay), "replay-ns/ev")
	b.ReportMetric(float64(jsonl)/float64(replay), "jsonl/replay")
}
