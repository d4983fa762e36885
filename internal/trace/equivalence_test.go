package trace_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/dracc"
	"repro/internal/omp"
	"repro/internal/specaccel"
	"repro/internal/tools"
	"repro/internal/trace"
)

// newTool builds a fresh instance of the named tool.
func newTool(t *testing.T, toolName string) tools.Analyzer {
	t.Helper()
	a, err := tools.New(toolName)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// render returns every report in a's sink rendered to its full string form
// (kind, variable, location, detail), in sink order.
func render(a tools.Analyzer) []string {
	reports := a.Sink().Reports()
	out := make([]string, len(reports))
	for i, r := range reports {
		out[i] = r.String()
	}
	return out
}

// renderedReports runs one sequential replay of tr into a fresh instance of
// the named tool and returns its rendered reports.
func renderedReports(t *testing.T, tr *trace.Trace, toolName string) []string {
	t.Helper()
	a := newTool(t, toolName)
	if err := tr.ReplayContext(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	return render(a)
}

// sharedReports replays tr through the shared-mode CAS path (see
// trace.ReplayShared) and returns the rendered reports.
func sharedReports(t *testing.T, tr *trace.Trace, toolName string) []string {
	t.Helper()
	a := newTool(t, toolName)
	if err := trace.ReplayShared(tr, a); err != nil {
		t.Fatalf("shared-mode replay: %v", err)
	}
	return render(a)
}

// assertEquivalent replays tr through the named tool twice — the sequential
// loop (tag plane, region memo, column batches) and shared-mode dispatch
// (per-access CAS, the discipline tools use when callbacks arrive in
// parallel) — and requires byte-identical rendered reports, content AND
// order. The two paths share no shadow-update code, so a bug in either
// one's fast path shows up as a difference.
func assertEquivalent(t *testing.T, tr *trace.Trace, toolName string) {
	t.Helper()
	want := renderedReports(t, tr, toolName)
	assertSameReports(t, toolName+" shared-mode", sharedReports(t, tr, toolName), want)
}

// recordDRACC records benchmark b on a multi-threaded runtime with the same
// forced-synchronous configuration an online ARBALEST run uses.
func recordDRACC(t *testing.T, b *dracc.Benchmark) *trace.Trace {
	t.Helper()
	rec := trace.NewRecorder()
	rt := omp.NewRuntime(omp.Config{NumThreads: 4, ForceSync: true}, rec)
	_ = rt.Run(func(c *omp.Context) error {
		b.Run(c)
		return nil
	})
	return rec.Trace()
}

// TestParallelReplayEquivalenceDRACC sweeps the whole DRACC suite — every
// buggy and every correct benchmark — through every registered tool on both
// the sequential and the parallel-safe shared-mode path, and requires
// byte-identical reports. Run under -race this also exercises the
// analyzers' lock-free hot paths.
func TestParallelReplayEquivalenceDRACC(t *testing.T) {
	for _, b := range dracc.All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			t.Parallel()
			tr := recordDRACC(t, b)
			for _, toolName := range tools.Names() {
				assertEquivalent(t, tr, toolName)
			}
		})
	}
}

// TestParallelReplayEquivalenceSPEC covers every SPEC ACCEL proxy workload
// (correct programs: the equivalence assertion is "still zero reports on
// both paths") plus the buggy postencil case study, whose reports must
// render identically on both paths.
func TestParallelReplayEquivalenceSPEC(t *testing.T) {
	cfg := omp.Config{NumThreads: 4, HostMem: 8 << 20, DeviceMem: 8 << 20}
	for _, w := range specaccel.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			rec := trace.NewRecorder()
			rt := omp.NewRuntime(cfg, rec)
			if err := rt.Run(func(c *omp.Context) error { return w.Run(c, 1) }); err != nil {
				t.Fatal(err)
			}
			assertEquivalent(t, rec.Trace(), "arbalest")
		})
	}
	t.Run("postencil-buggy", func(t *testing.T) {
		t.Parallel()
		rec := trace.NewRecorder()
		rt := omp.NewRuntime(cfg, rec)
		_ = rt.Run(func(c *omp.Context) error {
			specaccel.RunPostencilBuggy(c, 1)
			return nil
		})
		assertEquivalent(t, rec.Trace(), "arbalest")
	})
}

// TestParallelReplayEquivalenceAllTools runs one report-rich benchmark
// through every registered tool on each replay front besides the in-memory
// loop — shared-mode dispatch, and the pipelined ReplayStream decoder over
// both trace encodings — so no front can drift for any tool.
func TestParallelReplayEquivalenceAllTools(t *testing.T) {
	b := dracc.ByID(22)
	if b == nil {
		t.Fatal("DRACC_OMP_022 missing")
	}
	tr := recordDRACC(t, b)
	var jsonl bytes.Buffer
	if err := tr.Save(&jsonl); err != nil {
		t.Fatal(err)
	}
	framed := framedBytes(t, tr)
	for _, toolName := range tools.Names() {
		toolName := toolName
		t.Run(toolName, func(t *testing.T) {
			t.Parallel()
			want := renderedReports(t, tr, toolName)
			assertSameReports(t, "shared-mode", sharedReports(t, tr, toolName), want)
			for _, enc := range []struct {
				label string
				data  []byte
			}{{"stream-jsonl", jsonl.Bytes()}, {"stream-framed", framed}} {
				a := newTool(t, toolName)
				stats, err := trace.ReplayStream(context.Background(), bytes.NewReader(enc.data), trace.Limits{}, a)
				if err != nil {
					t.Fatalf("%s: %v", enc.label, err)
				}
				if stats.Events != uint64(len(tr.Events)) {
					t.Fatalf("%s: streamed %d events, trace has %d", enc.label, stats.Events, len(tr.Events))
				}
				assertSameReports(t, enc.label, render(a), want)
			}
		})
	}
}

// TestReplayStreamMatchesReplayParallel pipes a saved trace through the
// streaming decoder and requires the same reports as the in-memory engine's
// ReplayParallel entry point, so the two replay fronts cannot drift.
func TestReplayStreamMatchesReplayParallel(t *testing.T) {
	b := dracc.ByID(22)
	if b == nil {
		t.Fatal("DRACC_OMP_022 missing")
	}
	tr := recordDRACC(t, b)
	inMem := newTool(t, "arbalest")
	if _, err := tr.ReplayParallel(context.Background(), 1, inMem); err != nil {
		t.Fatal(err)
	}
	want := render(inMem)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	a := newTool(t, "arbalest")
	stats, err := trace.ReplayStream(context.Background(), &buf, trace.Limits{}, a)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != uint64(len(tr.Events)) {
		t.Fatalf("streamed %d events, trace has %d", stats.Events, len(tr.Events))
	}
	assertSameReports(t, "stream", render(a), want)
}
