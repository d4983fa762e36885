package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/tools"
	"repro/internal/trace"
)

// assertSameFindings requires the daemon's result to carry byte-identical
// findings to the one-shot replay: same issue count, same kind histogram,
// same rendered reports in the same order.
func assertSameFindings(t *testing.T, label string, got, want *tools.Summary) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: nil result", label)
	}
	if got.Issues != want.Issues || !reflect.DeepEqual(got.KindCounts, want.KindCounts) {
		t.Fatalf("%s: %d issues %v, want %d issues %v", label, got.Issues, got.KindCounts, want.Issues, want.KindCounts)
	}
	gj, _ := json.Marshal(got.Reports)
	wj, _ := json.Marshal(want.Reports)
	if string(gj) != string(wj) {
		t.Fatalf("%s: reports differ\ngot:  %s\nwant: %s", label, gj, wj)
	}
}

// TestCrashAfterCheckpointResumes is the end-to-end crash/resume path: a
// simulated SIGKILL lands right after the first checkpoint is durably
// written, a second service life recovers the spool, resumes from the
// checkpoint, and produces the same findings an uninterrupted run would.
func TestCrashAfterCheckpointResumes(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	tr := recordTrace(t, 22)
	want := oneShot(t, tr, "arbalest")

	dir := t.TempDir()
	jnl, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Workers: 1, QueueSize: 8, Journal: jnl, CheckpointEvery: 1})
	faultinject.Enable("worker.crash", faultinject.Fault{Err: errors.New("simulated SIGKILL"), Count: 1})
	s1.Start()
	v, err := s1.Submit("arbalest", tr)
	if err != nil {
		t.Fatal(err)
	}

	// The injected crash kills the replay goroutine immediately after the
	// first checkpoint reaches disk, leaving the job running in the journal
	// — exactly the state a power cut would leave behind.
	ckptPath := filepath.Join(dir, v.ID+".ckpt")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(ckptPath); err == nil && s1.Metrics().Snapshot().CheckpointsWritten >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint never appeared on disk")
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the Goexit unwind finish
	faultinject.Reset()
	// s1 is abandoned without shutdown, as a real crash would abandon it.

	jnl2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 1, QueueSize: 8, Journal: jnl2, CheckpointEvery: 4})
	requeued, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if requeued != 1 {
		t.Fatalf("recovered %d jobs, want 1", requeued)
	}
	s2.Start()
	got := waitSettled(t, s2, v.ID)
	if got.Status != StatusDone {
		t.Fatalf("resumed job status %q (err %q), want done", got.Status, got.Error)
	}
	assertSameFindings(t, "resumed job", got.Result, want)
	if n := s2.Metrics().Snapshot().CheckpointsRestored; n < 1 {
		t.Errorf("CheckpointsRestored = %d, want >= 1", n)
	}
	shutdownOrFail(t, s2)
	if _, err := os.Stat(ckptPath); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("terminal job's checkpoint not cleaned up: stat err %v", err)
	}
}

// TestWatchdogRetriesStalledReplay wedges the first replay attempt (a
// checkpoint write that hangs well past the stall timeout) and requires the
// watchdog to detect the flat heartbeat, cancel the attempt, and finish the
// job on the retry with correct findings.
func TestWatchdogRetriesStalledReplay(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	tr := recordTrace(t, 22)
	want := oneShot(t, tr, "arbalest")

	jnl := newJournal(t)
	s := New(Config{
		Workers:         1,
		QueueSize:       8,
		Journal:         jnl,
		CheckpointEvery: 1,
		StallTimeout:    150 * time.Millisecond,
	})
	faultinject.Enable("journal.checkpoint", faultinject.Fault{Delay: 3 * time.Second, Count: 1})
	s.Start()
	v, err := s.Submit("arbalest", tr)
	if err != nil {
		t.Fatal(err)
	}
	got := waitSettled(t, s, v.ID)
	if got.Status != StatusDone {
		t.Fatalf("job status %q (err %q), want done after watchdog retry", got.Status, got.Error)
	}
	assertSameFindings(t, "retried job", got.Result, want)
	snap := s.Metrics().Snapshot()
	if snap.JobsStalled < 1 {
		t.Errorf("JobsStalled = %d, want >= 1", snap.JobsStalled)
	}
	if snap.WatchdogRetries != 1 {
		t.Errorf("WatchdogRetries = %d, want 1", snap.WatchdogRetries)
	}
	shutdownOrFail(t, s)
}

// TestChaosCrashResume crashes three replays mid-flight across a four-worker
// pool under load, then verifies the next service life resumes exactly those
// three from their checkpoints and every job in the fleet ends with the
// uninterrupted-run findings.
func TestChaosCrashResume(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	faultinject.Seed(20260805)
	tr := recordTrace(t, 22)
	want := oneShot(t, tr, "arbalest")
	const jobs, crashes = 12, 3

	dir := t.TempDir()
	jnl, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Workers: 4, QueueSize: 64, Journal: jnl, CheckpointEvery: 1, MaxFinishedJobs: -1})
	faultinject.Enable("worker.crash", faultinject.Fault{Err: errors.New("chaos crash"), Count: crashes})
	s1.Start()
	ids := make([]string, jobs)
	for i := range ids {
		v, _, err := s1.SubmitKeyed("arbalest", fmt.Sprintf("chaos-%d", i), tr)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = v.ID
	}

	// Each crash eats one worker at its job's first checkpoint, so the pool
	// converges to jobs-crashes terminal jobs and exactly crashes stuck ones.
	deadline := time.Now().Add(60 * time.Second)
	for {
		terminal, running := 0, 0
		for _, v := range s1.Jobs() {
			switch v.Status {
			case StatusDone, StatusFailed:
				terminal++
			case StatusRunning:
				running++
			}
		}
		if terminal == jobs-crashes && running == crashes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first life never converged: %d terminal %d running", terminal, running)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var crashed []string
	for _, v := range s1.Jobs() {
		if v.Status == StatusRunning {
			crashed = append(crashed, v.ID)
		}
		if v.Status == StatusFailed {
			t.Errorf("job %s failed in first life: %s", v.ID, v.Error)
		}
	}
	time.Sleep(20 * time.Millisecond)
	faultinject.Reset()
	// Abandoned, not shut down: the three stuck jobs must stay "running" in
	// the journal for the next life to find.

	jnl2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 2, QueueSize: 64, Journal: jnl2, CheckpointEvery: 4, MaxFinishedJobs: -1})
	requeued, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if requeued != crashes {
		t.Fatalf("second life recovered %d jobs, want %d", requeued, crashes)
	}
	s2.Start()
	for _, id := range crashed {
		got := waitSettled(t, s2, id)
		if got.Status != StatusDone {
			t.Fatalf("resumed job %s status %q (err %q), want done", id, got.Status, got.Error)
		}
		assertSameFindings(t, "resumed "+id, got.Result, want)
	}
	// History and resumed jobs together: every submitted job, exactly once.
	views := s2.Jobs()
	if len(views) != jobs {
		t.Fatalf("second life sees %d jobs, want %d", len(views), jobs)
	}
	for _, v := range views {
		if v.Status != StatusDone {
			t.Errorf("job %s status %q, want done", v.ID, v.Status)
		}
	}
	if n := s2.Metrics().Snapshot().CheckpointsRestored; n != crashes {
		t.Errorf("CheckpointsRestored = %d, want %d", n, crashes)
	}
	shutdownOrFail(t, s2)
}

// TestCorruptSpoolSurvivesRecovery: one corrupt trace file in the spool must
// not take recovery down with it — the damaged job is skipped (counted in
// the journal-errors metric) and the healthy one completes.
func TestCorruptSpoolSurvivesRecovery(t *testing.T) {
	tr := recordTrace(t, 22)
	want := oneShot(t, tr, "arbalest")

	dir := t.TempDir()
	jnl, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Workers: 1, QueueSize: 8, Journal: jnl})
	// Never started: both jobs stay pending in the spool, as if the daemon
	// died before its workers picked them up.
	va, err := s1.Submit("arbalest", tr)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := s1.Submit("arbalest", tr)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, va.ID+".trace")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x08
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	jnl2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 1, QueueSize: 8, Journal: jnl2})
	requeued, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if requeued != 1 {
		t.Fatalf("recovered %d jobs, want 1 (the uncorrupted one)", requeued)
	}
	if n := s2.Metrics().Snapshot().JournalErrors; n < 1 {
		t.Errorf("JournalErrors = %d, want >= 1", n)
	}
	s2.Start()
	got := waitSettled(t, s2, vb.ID)
	if got.Status != StatusDone {
		t.Fatalf("healthy job status %q (err %q), want done", got.Status, got.Error)
	}
	assertSameFindings(t, "healthy job", got.Result, want)
	shutdownOrFail(t, s2)
}

// TestUnrestorableCheckpointIsReplaced: a recovered job whose checkpoint
// fails to restore replays from scratch, and the checkpoints that replay
// cuts must replace the unrestorable one — even though they sit earlier in
// the trace — so a second crash does not land on it again.
func TestUnrestorableCheckpointIsReplaced(t *testing.T) {
	tr := recordTrace(t, 22)
	want := oneShot(t, tr, "arbalest")

	dir := t.TempDir()
	jnl, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Never started: the job stays pending in the spool.
	v, err := New(Config{Workers: 1, QueueSize: 8, Journal: jnl}).Submit("arbalest", tr)
	if err != nil {
		t.Fatal(err)
	}
	// A CRC-clean checkpoint at the trace's end whose state the report sink
	// refuses (one more replay clock than reports).
	if err := jnl.WriteCheckpoint(&trace.Checkpoint{
		JobID: v.ID, Tool: "arbalest", NextEvent: uint64(len(tr.Events)),
		Events: uint64(len(tr.Events)), Created: time.Now(),
		State: json.RawMessage(`{"sink":{"reports":[],"seqs":[1]}}`),
	}); err != nil {
		t.Fatal(err)
	}

	jnl2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, QueueSize: 8, Journal: jnl2, CheckpointEvery: 1})
	if n, err := s.Recover(); err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v; want 1 job", n, err)
	}
	s.Start()
	defer shutdownOrFail(t, s)
	got := waitSettled(t, s, v.ID)
	if got.Status != StatusDone {
		t.Fatalf("job status %q (err %q), want done", got.Status, got.Error)
	}
	assertSameFindings(t, "replayed from scratch", got.Result, want)
	snap := s.Metrics().Snapshot()
	if snap.CheckpointErrors < 1 {
		t.Errorf("CheckpointErrors = %d, want the failed restore counted", snap.CheckpointErrors)
	}

	// A clean run of the same trace cuts the same checkpoints.
	clean := New(Config{Workers: 1, QueueSize: 8, Journal: newJournal(t), CheckpointEvery: 1})
	clean.Start()
	defer shutdownOrFail(t, clean)
	cv, err := clean.Submit("arbalest", tr)
	if err != nil {
		t.Fatal(err)
	}
	waitSettled(t, clean, cv.ID)
	if w, cw := snap.CheckpointsWritten, clean.Metrics().Snapshot().CheckpointsWritten; w != cw {
		t.Errorf("recovered job wrote %d checkpoints, a clean run %d: the from-scratch replay's checkpoints were dropped as older than the unrestorable one", w, cw)
	}
}
