package tools

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/race"
	"repro/internal/report"
)

// Checkpointer is implemented by analyzers whose full analysis state can be
// serialized at an epoch boundary and restored into a fresh instance of the
// same tool. The service checkpoints only analyzers that implement it; the
// rest simply re-run from scratch after a crash, as before.
type Checkpointer interface {
	// CheckpointState serializes the analyzer's state. Must only be called
	// at an epoch barrier (no access dispatch in flight).
	CheckpointState() (json.RawMessage, error)
	// RestoreState loads state captured by CheckpointState into a freshly
	// constructed analyzer of the same tool.
	RestoreState(json.RawMessage) error
}

// ErrRestore marks the error Open returns when checkpoint state could not
// be restored; the analyzer returned with it is clean and usable.
var ErrRestore = errors.New("tools: checkpoint restore failed")

// Open is how every analysis job gets its analyzer: it builds the named
// tool, enables analyzer-level stats when stats is set, and, when state is
// non-nil, restores the checkpoint state into it. A restore that fails
// (corrupt state, or a tool that cannot restore) may have half-applied, so
// Open falls back to a clean analyzer of the same tool and returns it
// together with an error wrapping ErrRestore: the caller replays from
// event 0. Any other error (an unknown tool) comes with a nil analyzer.
func Open(name string, stats bool, state json.RawMessage) (Analyzer, error) {
	a, err := open(name, stats)
	if err != nil || state == nil {
		return a, err
	}
	cp, ok := a.(Checkpointer)
	if !ok {
		return a, fmt.Errorf("%w: tool %q does not checkpoint", ErrRestore, name)
	}
	if rerr := cp.RestoreState(state); rerr != nil {
		a, _ = open(name, stats)
		return a, fmt.Errorf("%w: %v", ErrRestore, rerr)
	}
	return a, nil
}

// open builds one analyzer with stats enabled when asked.
func open(name string, stats bool) (Analyzer, error) {
	a, err := New(name)
	if err != nil {
		return nil, err
	}
	if sp, ok := a.(StatsProvider); ok && stats {
		sp.EnableStats()
	}
	return a, nil
}

// arbalestFullState composes the component snapshots: the VSM detector and
// race detector serialize their analysis state without the report sink, and
// the shared sink is serialized exactly once.
type arbalestFullState struct {
	VSM  core.State       `json:"vsm"`
	Race race.State       `json:"race"`
	Sink report.SinkState `json:"sink"`
}

// CheckpointState implements Checkpointer.
func (a *ArbalestFull) CheckpointState() (json.RawMessage, error) {
	st := arbalestFullState{
		VSM:  a.vsm.Snapshot(),
		Race: a.race.Snapshot(),
		Sink: a.sink.Snapshot(),
	}
	return json.Marshal(st)
}

// RestoreState implements Checkpointer.
func (a *ArbalestFull) RestoreState(raw json.RawMessage) error {
	var st arbalestFullState
	if err := json.Unmarshal(raw, &st); err != nil {
		return err
	}
	if err := a.vsm.Restore(st.VSM); err != nil {
		return err
	}
	if err := a.race.Restore(st.Race); err != nil {
		return err
	}
	return a.sink.Restore(st.Sink)
}

var _ Checkpointer = (*ArbalestFull)(nil)
