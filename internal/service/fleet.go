// Fleet backend: the dist.Backend seam the coordinator drives.
//
// With Config.ExternalDispatch set, Start launches no inline workers and
// the coordinator (internal/dist) becomes the only consumer of the job
// queue. The running transition, checkpoint custody, and the terminal
// bookkeeping live here and nowhere else: runJob records in-process runs
// through the same methods, so a job finished by a remote worker is
// indistinguishable (journal marks, metrics, retention) from one finished
// inline.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/dist"
	"repro/internal/journal"
	"repro/internal/tools"
	"repro/internal/trace"
)

// DequeueJob hands the next accepted job to the coordinator, blocking until
// one arrives. Jobs surface in weighted-fair order with deadline and
// overload shedding applied at the pop, exactly as for inline workers.
// ok=false means ctx was canceled or the service is shutting down with the
// queue drained.
func (s *Service) DequeueJob(ctx context.Context) (dist.JobSpec, bool) {
	j, ok := s.dequeue(ctx)
	if !ok {
		return dist.JobSpec{}, false
	}
	weight := s.tenants.Get(j.tenant).Weight()
	s.mu.Lock()
	spec := dist.JobSpec{ID: j.id, Tool: j.tool, Events: j.events, Tenant: j.tenant, Weight: weight}
	s.mu.Unlock()
	return spec, true
}

// RunJobInline analyzes the job on the calling goroutine through the
// executor (degraded mode: zero live workers).
func (s *Service) RunJobInline(id string) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if ok {
		s.runJob(j)
	}
}

// MarkJobRunning transitions the job to running, journaling the
// transition. False means the job is gone or already terminal and must not
// run (for a remote worker: the lease must not be granted).
func (s *Service) MarkJobRunning(id, worker string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok || j.status == StatusDone || j.status == StatusFailed {
		s.mu.Unlock()
		return false
	}
	// A re-lease after expiry arrives with the job already running; keep
	// the original start time so queue-wait isn't counted twice.
	if j.status != StatusRunning {
		j.status = StatusRunning
		j.started = time.Now()
		if qs := j.span.Child("queue"); qs != nil {
			qs.EndAt(j.started)
		}
		if !j.enqueued.IsZero() {
			s.metrics.queueWait.ObserveDuration(j.started.Sub(j.enqueued))
		}
	}
	s.publishTraceLocked(j)
	hook := s.testHookRunning
	s.mu.Unlock()
	s.mark(j, journal.StatusRunning, "", nil)
	if hook != nil {
		hook(id)
	}
	return true
}

// StoreCheckpoint takes custody of a job's epoch-barrier checkpoint:
// monotone per job (stale ones are dropped silently — the analysis moved
// on, or an abandoned attempt is racing a watchdog retry) and spooled
// through the journal so a restart resumes the job from it.
func (s *Service) StoreCheckpoint(ck *trace.Checkpoint) error {
	s.mu.Lock()
	j, ok := s.jobs[ck.JobID]
	if !ok {
		s.mu.Unlock()
		return dist.ErrNoJob
	}
	if j.status == StatusDone || j.status == StatusFailed {
		s.mu.Unlock()
		return nil // terminal: the checkpoint is obsolete, not an error
	}
	if j.ckpt != nil && ck.NextEvent < j.ckpt.NextEvent {
		s.mu.Unlock()
		return nil
	}
	j.ckpt = ck
	s.mu.Unlock()
	if s.cfg.Journal != nil {
		if err := s.cfg.Journal.WriteCheckpoint(ck); err != nil {
			// The in-memory copy still serves rescheduling within this
			// coordinator life; only restart durability is degraded.
			s.metrics.checkpointErrors.Inc()
			s.metrics.journalError("checkpoint")
			s.jobLogger(j).Error("checkpoint write failed", "phase", "replay", "err", err)
		}
	}
	s.metrics.checkpointsWritten.Inc()
	s.metrics.checkpointBytes.Observe(float64(len(ck.State)))
	return nil
}

// Complete records a job's terminal state exactly once — status, result,
// span, quota release, metrics, journal mark, retention GC, checkpoint
// removal — for every run: in-process, remote, or shed before it ran. A
// second completion (a zombie's result racing the rescheduled run) fails
// with an error instead of overwriting.
func (s *Service) Complete(id string, r dist.Result) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return dist.ErrNoJob
	}
	if j.status == StatusDone || j.status == StatusFailed {
		s.mu.Unlock()
		return fmt.Errorf("dist backend: job %s already terminal (%s)", id, j.status)
	}
	j.finished = time.Now()
	j.wall = r.Wall
	if j.wall == 0 && !j.started.IsZero() {
		j.wall = j.finished.Sub(j.started)
	}
	j.tr = nil   // release the trace's memory; only the summary is kept
	j.ckpt = nil // terminal: the checkpoint (and its spool file) are obsolete
	var summary *tools.Summary
	if r.Error != "" {
		j.status = StatusFailed
		j.errMsg = r.Error
	} else {
		j.status = StatusDone
		if len(r.Summary) > 0 {
			var sum tools.Summary
			if err := json.Unmarshal(r.Summary, &sum); err == nil {
				summary = &sum
				j.result = summary
			} else {
				s.jobLogger(j).Error("result unmarshal failed", "phase", "complete", "err", err)
			}
		}
	}
	if j.span != nil {
		if !r.SummarizeStart.IsZero() {
			ss := j.span.StartChild("summarize", r.SummarizeStart)
			ss.EndAt(r.SummarizeStart.Add(r.SummarizeWall))
			if summary != nil {
				ss.SetCount("issues", int64(summary.Issues))
			}
		}
		if r.Error != "" {
			j.span.SetError(r.Error)
		}
		j.span.EndAt(j.finished)
	}
	s.releaseQuotaLocked(j)
	s.publishTraceLocked(j)
	s.metrics.jobSeconds.ObserveDuration(j.finished.Sub(j.submitted))
	s.gcLocked(j.finished)
	s.mu.Unlock()

	if r.Error != "" {
		s.metrics.jobsFailed.Inc()
		s.mark(j, journal.StatusFailed, r.Error, nil)
	} else {
		s.metrics.jobsCompleted.Inc()
		s.metrics.eventsReplayed.Add(r.Events)
		if summary != nil {
			s.metrics.recordJobStats(summary.Stats)
		}
		s.mark(j, journal.StatusDone, "", r.Summary)
	}
	if s.cfg.Journal != nil {
		if rerr := s.cfg.Journal.RemoveCheckpoint(id); rerr != nil {
			s.metrics.journalError("remove")
			s.jobLogger(j).Error("checkpoint remove failed", "phase", "gc", "err", rerr)
		}
	}
	return nil
}

// FreshCheckpoint returns the job's newest checkpoint, nil when it must
// replay from scratch.
func (s *Service) FreshCheckpoint(id string) *trace.Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j.ckpt
	}
	return nil
}

// TraceFramed serializes the job's trace in the CRC-framed wire format for
// a worker to fetch.
func (s *Service) TraceFramed(id string) ([]byte, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	var tr *trace.Trace
	if ok {
		tr = j.tr
	}
	s.mu.Unlock()
	if !ok || tr == nil {
		return nil, dist.ErrNoJob
	}
	var buf bytes.Buffer
	if err := tr.SaveFramed(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
