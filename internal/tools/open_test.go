package tools_test

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/dracc"
	"repro/internal/omp"
	"repro/internal/tools"
	"repro/internal/trace"
)

// recordDRACC records one DRACC benchmark's execution.
func recordDRACC(t *testing.T, id int) *trace.Trace {
	t.Helper()
	b := dracc.ByID(id)
	rec := trace.NewRecorder()
	rt := omp.NewRuntime(omp.Config{NumDevices: b.Devices, NumThreads: 2, ForceSync: true}, rec)
	if err := rt.Run(func(c *omp.Context) error { b.Run(c); return nil }); err != nil {
		t.Fatal(err)
	}
	return rec.Trace()
}

// findings replays tr from event 0 through a and renders the summary.
func findings(t *testing.T, tr *trace.Trace, a tools.Analyzer) string {
	t.Helper()
	if _, err := tr.ReplayDurable(context.Background(), trace.DurableOptions{}, a); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(tools.Summarize(a).Reports)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// midTraceState checkpoints a replay of tr at its first epoch boundary past
// the trace's midpoint, so the state carries VSM, race and report contents.
func midTraceState(t *testing.T, tr *trace.Trace) json.RawMessage {
	t.Helper()
	a, err := tools.Open("arbalest", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	var state json.RawMessage
	_, err = tr.ReplayDurable(context.Background(), trace.DurableOptions{
		CheckpointEvery: uint64(len(tr.Events) / 2),
		Checkpoint: func(uint64) error {
			if state == nil {
				state, err = a.(tools.Checkpointer).CheckpointState()
			}
			return err
		},
	}, a)
	if err != nil {
		t.Fatal(err)
	}
	if state == nil {
		t.Fatal("replay cut no checkpoint")
	}
	return state
}

// TestOpenCorruptStateFallsBackClean feeds Open checkpoint state that
// restores the VSM and race components and then fails on the report sink,
// so a non-clean fallback would carry half-applied state. Open must report
// the restore error and hand back an analyzer whose replay from event 0
// matches a fresh analyzer byte for byte.
func TestOpenCorruptStateFallsBackClean(t *testing.T) {
	tr := recordDRACC(t, 22)
	fresh, err := tools.Open("arbalest", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := findings(t, tr, fresh)

	var st map[string]json.RawMessage
	if err := json.Unmarshal(midTraceState(t, tr), &st); err != nil {
		t.Fatal(err)
	}
	// One more replay clock than reports: the sink refuses the state after
	// both detectors have restored theirs.
	st["sink"] = json.RawMessage(`{"reports":[],"seqs":[7]}`)
	corrupt, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}

	a, err := tools.Open("arbalest", false, corrupt)
	if !errors.Is(err, tools.ErrRestore) {
		t.Fatalf("Open error = %v, want one wrapping ErrRestore", err)
	}
	if a == nil {
		t.Fatal("Open returned no analyzer with the restore error")
	}
	if got := findings(t, tr, a); got != want {
		t.Fatalf("fallback analyzer's findings differ from a fresh one\ngot:  %s\nwant: %s", got, want)
	}

	if _, err := tools.Open("arbalest", false, json.RawMessage(`{not json`)); !errors.Is(err, tools.ErrRestore) {
		t.Errorf("unparseable state: error %v, want one wrapping ErrRestore", err)
	}
}

// TestOpenRestoresValidState: a good checkpoint restores, and the replay
// resumed from its boundary ends with the uninterrupted run's findings.
func TestOpenRestoresValidState(t *testing.T) {
	tr := recordDRACC(t, 22)
	fresh, err := tools.Open("arbalest", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := findings(t, tr, fresh)

	src, err := tools.Open("arbalest", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	var state json.RawMessage
	var next uint64
	if _, err := tr.ReplayDurable(context.Background(), trace.DurableOptions{
		CheckpointEvery: uint64(len(tr.Events) / 2),
		Checkpoint: func(n uint64) error {
			if state == nil {
				next = n
				state, err = src.(tools.Checkpointer).CheckpointState()
			}
			return err
		},
	}, src); err != nil {
		t.Fatal(err)
	}

	a, err := tools.Open("arbalest", false, state)
	if err != nil {
		t.Fatalf("valid state: %v", err)
	}
	if _, err := tr.ReplayDurable(context.Background(), trace.DurableOptions{StartEvent: next}, a); err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(tools.Summarize(a).Reports)
	if string(got) != want {
		t.Fatalf("resumed findings differ\ngot:  %s\nwant: %s", got, want)
	}
}

func TestOpenEnablesStatsWhenAsked(t *testing.T) {
	for _, stats := range []bool{false, true} {
		a, err := tools.Open("arbalest", stats, nil)
		if err != nil {
			t.Fatal(err)
		}
		if on := a.(tools.StatsProvider).AnalyzerStats() != nil; on != stats {
			t.Errorf("Open(stats=%v): stats enabled = %v", stats, on)
		}
	}
	// The fallback analyzer gets stats too.
	a, err := tools.Open("arbalest", true, json.RawMessage(`{not json`))
	if !errors.Is(err, tools.ErrRestore) {
		t.Fatalf("error %v, want one wrapping ErrRestore", err)
	}
	if a.(tools.StatsProvider).AnalyzerStats() == nil {
		t.Error("fallback analyzer lost its stats")
	}
}

func TestOpenUnknownTool(t *testing.T) {
	a, err := tools.Open("purify", false, nil)
	if err == nil || errors.Is(err, tools.ErrRestore) {
		t.Fatalf("unknown tool: error %v, want a non-restore error", err)
	}
	if a != nil {
		t.Errorf("unknown tool returned analyzer %T", a)
	}
	if tools.Valid("purify") == nil {
		t.Error("Valid accepted an unknown tool")
	}
	if tools.Valid("arbalest-vsm") != nil {
		t.Error("Valid rejected arbalest-vsm")
	}
}
