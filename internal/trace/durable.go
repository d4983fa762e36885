// Durable replay: checkpointed, resumable analysis.
//
// ReplayDurable is the one sequential replay loop behind every batch and
// durable replay; it adds two robustness hooks. First, periodic
// checkpoints: at configurable epoch boundaries the caller's Checkpoint
// callback fires with the index of the next undispatched event, at a
// moment when every event before it — and none after — has been
// dispatched. Boundaries are chosen by a rule that references event
// indices only ("after dispatching the non-access event at index i,
// checkpoint at i+1 once at least CheckpointEvery events have passed since
// the last checkpoint"), the same rule live stream sessions apply, so a
// checkpoint taken by either restores into the other. Second, resume:
// StartEvent skips the already-analyzed prefix.
//
// Progress heartbeats (ReplayProgress) let a watchdog distinguish a slow
// replay from a wedged one: the loop advances a monotone counter, and a
// Sum() that stops advancing means no event has been dispatched.
package trace

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/ompt"
)

// ReplayStats describes what one replay did.
type ReplayStats struct {
	// Events is the number of events dispatched.
	Events uint64
	// Accesses is the number of access events among them.
	Accesses uint64
	// Epochs is the number of barrier-delimited epochs that contained at
	// least one access.
	Epochs uint64
	// MaxEpochAccesses is the largest access count in any single epoch.
	MaxEpochAccesses uint64
}

// ReplayProgress is a monotone heartbeat counter shared between a replay
// and a watchdog. Its methods are safe for concurrent use and nil-safe (a
// nil progress records nothing).
type ReplayProgress struct {
	events atomic.Uint64
}

// NewReplayProgress returns a zeroed progress tracker.
func NewReplayProgress() *ReplayProgress { return &ReplayProgress{} }

// Add records n dispatched events.
func (p *ReplayProgress) Add(n uint64) {
	if p == nil || n == 0 {
		return
	}
	p.events.Add(n)
}

// Sum returns the total heartbeat count. A watchdog samples it; two equal
// samples an interval apart mean no event was dispatched in between.
func (p *ReplayProgress) Sum() uint64 {
	if p == nil {
		return 0
	}
	return p.events.Load()
}

// DurableOptions configures ReplayDurable.
type DurableOptions struct {
	// StartEvent resumes the replay at this event index: events before it
	// are assumed already folded into the tools' state (via a checkpoint
	// restore). Must be an epoch boundary — the index a Checkpoint callback
	// reported.
	StartEvent uint64
	// CheckpointEvery requests a checkpoint roughly every this many events,
	// taken at the next epoch boundary. 0 disables checkpointing.
	CheckpointEvery uint64
	// Checkpoint is called at each checkpoint boundary with the index of the
	// first event NOT yet dispatched. No event is in flight when it runs,
	// so serializing analyzer state is safe. A non-nil error aborts the
	// replay.
	Checkpoint func(nextEvent uint64) error
	// Progress, when non-nil, receives a heartbeat for every dispatched
	// event.
	Progress *ReplayProgress
}

// ReplayParallel replays the trace sequentially; workers is ignored.
//
// Deprecated: use ReplayDurable or ReplayContext. Kept only because the
// perfbench module still calls it; remove it once perfbench drops the
// call, and TestReplayStreamMatchesReplayParallel with it
// (TestParallelReplayEquivalenceAllTools covers the same comparison).
func (t *Trace) ReplayParallel(ctx context.Context, workers int, toolList ...ompt.Tool) (ReplayStats, error) {
	return t.ReplayDurable(ctx, DurableOptions{}, toolList...)
}

// ReplayDurable drives the trace through the given tools on the calling
// goroutine, in recorded order, with optional checkpointing, resume, and
// progress heartbeats. Stats cover only the events dispatched by this
// call: a resumed replay reports the suffix it replayed.
func (t *Trace) ReplayDurable(ctx context.Context, opts DurableOptions, toolList ...ompt.Tool) (ReplayStats, error) {
	var d ompt.Dispatcher
	for _, tool := range toolList {
		d.Register(tool)
	}
	if opts.StartEvent > uint64(len(t.Events)) {
		return ReplayStats{}, fmt.Errorf("trace: resume start %d is beyond trace end %d", opts.StartEvent, len(t.Events))
	}
	// One goroutine delivers every callback here, so modal tools may drop
	// their synchronization and enable single-threaded accelerators.
	d.SetDispatchMode(ompt.DispatchSequential)
	var st ReplayStats
	events := t.Events
	start := int(opts.StartEvent)
	last := opts.StartEvent
	// Runs of consecutive accesses dispatch as zero-copy views of the
	// trace's decode-once columns; runs end at barrier events, so
	// checkpoint boundaries stay exact (all events before the boundary
	// dispatched, none after).
	cols := t.columns()
	sinceCheck := replayCheckInterval // check ctx before the first event
	for i := start; i < len(events); {
		if sinceCheck >= replayCheckInterval {
			sinceCheck = 0
			if err := ctx.Err(); err != nil {
				return st, fmt.Errorf("trace: replay canceled at event %d of %d: %w", i, len(events), err)
			}
		}
		e := &events[i]
		if e.Kind == KindAccess {
			if e.Access == nil {
				return st, payloadErr(e)
			}
			j := i + 1
			for j < len(events) && events[j].Kind == KindAccess && events[j].Access != nil {
				j++
			}
			lo := cols.pos[i]
			for off, run := 0, j-i; off < run; {
				chunk := run - off
				if chunk > accessBatchCap {
					chunk = accessBatchCap
				}
				b := cols.view(lo+off, lo+off+chunk)
				d.AccessBatch(&b)
				opts.Progress.Add(uint64(chunk))
				off += chunk
				sinceCheck += chunk
				if sinceCheck >= replayCheckInterval && off < run {
					sinceCheck = 0
					if err := ctx.Err(); err != nil {
						return st, fmt.Errorf("trace: replay canceled at event %d of %d: %w", i+off, len(events), err)
					}
				}
			}
			epoch := uint64(j - i)
			st.Accesses += epoch
			st.Events += epoch
			st.Epochs++
			if epoch > st.MaxEpochAccesses {
				st.MaxEpochAccesses = epoch
			}
			i = j
			continue
		}
		if err := dispatchEvent(&d, e); err != nil {
			return st, err
		}
		st.Events++
		opts.Progress.Add(1)
		sinceCheck++
		if boundary := uint64(i) + 1; checkpointDue(&opts, boundary, last) {
			if err := opts.Checkpoint(boundary); err != nil {
				return st, err
			}
			last = boundary
		}
		i++
	}
	return st, nil
}

// checkpointDue reports whether a checkpoint should fire at boundary, given
// the previous checkpoint position. The rule references only event indices,
// never dispatch timing or chunking, so batch replays and live stream
// sessions checkpoint at identical boundaries.
func checkpointDue(opts *DurableOptions, boundary, last uint64) bool {
	return opts.CheckpointEvery > 0 && opts.Checkpoint != nil && boundary-last >= opts.CheckpointEvery
}
