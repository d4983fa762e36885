package dist

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"sync/atomic"
	"time"

	"repro/internal/tools"
	"repro/internal/trace"
)

// Job is one analysis job as the executor runs it. The standalone worker
// pool, the coordinator's inline path and remote workers all run jobs
// through it; they differ only in where checkpoints and the result go.
type Job struct {
	ID    string
	Tool  string
	Trace *trace.Trace
	// Resume, when it names this job's tool and lies within the trace, is
	// restored before the replay, which then starts at its NextEvent.
	Resume *trace.Checkpoint
	// Stats enables analyzer-level stats.
	Stats bool
	// CheckpointEvery, when positive, asks for a checkpoint roughly every
	// this many events, at epoch boundaries, handed to Checkpoint. A
	// non-nil error from Checkpoint aborts the replay.
	CheckpointEvery uint64
	Checkpoint      func(*trace.Checkpoint) error
	// Watch, when set, runs the replay it is handed (the service's stall
	// watchdog), seeing the replay's heartbeats and whether a checkpoint is
	// being serialized. Nil runs the replay on the calling goroutine.
	Watch func(replay func() (trace.ReplayStats, error), progress *trace.ReplayProgress, serializing *atomic.Bool) (trace.ReplayStats, error)
	// Logger receives the restore outcome and checkpoints that could not
	// be serialized (required).
	Logger *slog.Logger
}

// Run is a job whose analyzer is built and ready to replay.
type Run struct {
	job Job
	a   tools.Analyzer
	// Start is where the replay starts: Resume's NextEvent if it restored.
	Start uint64
	// RestoreErr (wrapping tools.ErrRestore) is why Resume was discarded.
	RestoreErr error
}

// Outcome is what one Execute call measured and produced. Summary and
// Result (the summary's JSON) are set only when the replay succeeded.
type Outcome struct {
	Stats                       trace.ReplayStats
	ReplayStart, SummarizeStart time.Time
	ReplayWall, SummarizeWall   time.Duration
	Summary                     *tools.Summary
	Result                      json.RawMessage
}

// Open builds the job's analyzer through tools.Open, restoring Resume when
// it applies. The only error is an unknown tool.
func (j Job) Open() (*Run, error) {
	var state json.RawMessage
	if ck := j.Resume; ck != nil && ck.Tool == j.Tool && ck.NextEvent <= uint64(len(j.Trace.Events)) {
		state = ck.State
	}
	a, err := tools.Open(j.Tool, j.Stats, state)
	if err != nil && !errors.Is(err, tools.ErrRestore) {
		return nil, err
	}
	r := &Run{job: j, a: a, RestoreErr: err}
	switch {
	case err != nil:
		j.Logger.Error("checkpoint restore failed; replaying from scratch", "phase", "replay", "err", err)
	case state != nil:
		r.Start = j.Resume.NextEvent
		j.Logger.Info("resuming from checkpoint", "phase", "replay", "resume_event", r.Start, "events", len(j.Trace.Events))
	}
	return r, nil
}

// Execute replays the trace from Start, then summarizes the analyzer and
// returns its shadow slabs to the arena for the next job. A failed replay
// returns its error with the replay timing filled in. Panics in analyzer
// code propagate to the caller.
func (r *Run) Execute(ctx context.Context) (Outcome, error) {
	j := r.job
	var serializing atomic.Bool
	opts := trace.DurableOptions{StartEvent: r.Start}
	if j.Watch != nil {
		opts.Progress = trace.NewReplayProgress()
	}
	if cp, ok := r.a.(tools.Checkpointer); ok && j.Checkpoint != nil && j.CheckpointEvery > 0 {
		opts.CheckpointEvery = j.CheckpointEvery
		opts.Checkpoint = func(next uint64) error {
			// A canceled replay (watchdog, timeout, lost lease) aborts rather
			// than ship a checkpoint the cancellation already outdated.
			if cause := context.Cause(ctx); cause != nil {
				return cause
			}
			serializing.Store(true)
			state, err := cp.CheckpointState()
			serializing.Store(false)
			if err != nil {
				// A checkpoint is an optimization: skip this one.
				j.Logger.Error("checkpoint serialize failed", "phase", "replay", "err", err)
				return nil
			}
			return j.Checkpoint(&trace.Checkpoint{
				JobID: j.ID, Tool: j.Tool, NextEvent: next,
				Events: uint64(len(j.Trace.Events)), Created: time.Now(), State: state,
			})
		}
	}
	replay := func() (trace.ReplayStats, error) { return j.Trace.ReplayDurable(ctx, opts, r.a) }

	var out Outcome
	var err error
	out.ReplayStart = time.Now()
	if j.Watch != nil {
		out.Stats, err = j.Watch(replay, opts.Progress, &serializing)
	} else {
		out.Stats, err = replay()
	}
	out.ReplayWall = time.Since(out.ReplayStart)
	if err != nil {
		return out, err
	}
	out.SummarizeStart = time.Now()
	out.Summary = tools.Summarize(r.a)
	out.SummarizeWall = time.Since(out.SummarizeStart)
	// A Summary is plain data; were marshaling to fail, Result stays nil
	// and the job completes without a stored result.
	out.Result, _ = json.Marshal(out.Summary)
	if rel, ok := r.a.(tools.Releaser); ok {
		rel.Release()
	}
	return out, nil
}
