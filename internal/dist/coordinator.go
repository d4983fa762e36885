package dist

import (
	"context"
	"io"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// CoordinatorConfig parameterizes a Coordinator.
type CoordinatorConfig struct {
	// Backend is the job engine (required).
	Backend Backend
	// LeaseTTL is how long a lease survives without a heartbeat (default
	// 15s). Workers heartbeat at TTL/3, so one TTL tolerates two lost
	// heartbeats before the job is rescheduled.
	LeaseTTL time.Duration
	// WorkerTTL is how long a registered worker stays "live" without any
	// contact (default 3×LeaseTTL). With zero live workers the coordinator
	// runs jobs inline.
	WorkerTTL time.Duration
	// Registry receives the fleet metric families; pass the service's so
	// one scrape covers both (nil = private registry).
	Registry *telemetry.Registry
	// Fleet, when non-nil, write-ahead persists fencing tokens and worker
	// registrations so both survive a coordinator restart. Nil keeps them
	// in memory only (fencing then holds within one coordinator life).
	Fleet *journal.FleetLog
	// Logger receives operational logging. Nil discards.
	Logger *slog.Logger
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.WorkerTTL <= 0 {
		c.WorkerTTL = 3 * c.LeaseTTL
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// lease is one job's current ownership record.
type lease struct {
	spec     JobSpec
	worker   string
	token    uint64
	deadline time.Time
}

// LeaseGrant is the coordinator's answer to a successful lease poll.
type LeaseGrant struct {
	Job   JobSpec `json:"job"`
	Token uint64  `json:"token"`
	// TTLMillis is the lease TTL; the worker must heartbeat well inside it.
	TTLMillis int64 `json:"ttlMillis"`
	// Traceparent carries the job's distributed trace context (the lease
	// span opened for this grant); the worker parents its local spans under
	// it. Empty when the job is untraced or the backend has no TraceSink.
	Traceparent string `json:"traceparent,omitempty"`
}

// Coordinator owns the lease table and dispatch policy for a worker fleet.
// Create with NewCoordinator, launch with Start, stop with Shutdown.
type Coordinator struct {
	cfg CoordinatorConfig
	m   *fleetMetrics

	mu sync.Mutex
	// pending holds jobs awaiting a lease, grouped by tenant and granted
	// weighted-fair: each grant pops under the same weighted round-robin the
	// service queue uses, so one tenant's burst of accepted jobs cannot
	// monopolize the fleet's workers any more than it can the inline pool.
	pending *tenant.FairQueue[JobSpec]
	leases  map[string]*lease    // job id -> active lease
	tokens  map[string]uint64    // job id -> newest issued fencing token
	workers map[string]time.Time // worker id -> last contact
	notify  chan struct{}        // closed and replaced when pending gains work
	closed  bool
	// graceUntil holds recovered jobs for re-lease (instead of running them
	// inline) until previously-registered workers have had time to
	// reconnect after a coordinator restart.
	graceUntil time.Time

	stop           chan struct{}
	cancelDispatch context.CancelFunc
	loopWG         sync.WaitGroup
	inlineWG       sync.WaitGroup
	// inlineSem bounds inline (degraded-mode) replays to one per CPU.
	inlineSem chan struct{}
}

// NewCoordinator builds a Coordinator. With cfg.Fleet set, the fencing
// tokens and worker registrations of previous coordinator lives are
// recovered first, so re-issued leases continue the monotone token sequence
// and recovered jobs wait out a reconnect grace window before degrading to
// inline execution.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:       cfg,
		m:         newFleetMetrics(cfg.Registry),
		pending:   tenant.NewFairQueue[JobSpec](),
		leases:    make(map[string]*lease),
		tokens:    make(map[string]uint64),
		workers:   make(map[string]time.Time),
		notify:    make(chan struct{}),
		stop:      make(chan struct{}),
		inlineSem: make(chan struct{}, runtime.GOMAXPROCS(0)),
	}
	if cfg.Fleet != nil {
		st, err := cfg.Fleet.RecoverFleet(nil)
		if err != nil {
			return nil, err
		}
		c.tokens = st.Tokens
		if len(st.Workers) > 0 {
			c.graceUntil = time.Now().Add(cfg.WorkerTTL)
			cfg.Logger.Info("fleet log recovered; holding jobs for worker reconnect",
				"tokens", len(st.Tokens), "workers", len(st.Workers), "grace", cfg.WorkerTTL)
		}
	}
	return c, nil
}

// Start launches the dispatch and janitor loops.
func (c *Coordinator) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	c.cancelDispatch = cancel
	c.loopWG.Add(2)
	go c.dispatchLoop(ctx)
	go c.janitorLoop()
}

// Shutdown stops dispatch and waits for inline jobs to finish. Jobs leased
// to remote workers are NOT waited for: they are journaled on the
// coordinator and either complete against the next coordinator life or are
// recovered by it.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.stop)
		c.wakeLocked()
	}
	c.mu.Unlock()
	if c.cancelDispatch != nil {
		c.cancelDispatch()
	}
	done := make(chan struct{})
	go func() {
		c.loopWG.Wait()
		c.inlineWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// traceSink returns the backend's optional tracing seam, nil when the
// backend does not trace. Calls into the sink acquire the backend's own
// lock; the established lock order is c.mu before the backend's (see
// grantLocked's MarkJobRunning), so calling the sink under c.mu is safe.
func (c *Coordinator) traceSink() TraceSink {
	sink, _ := c.cfg.Backend.(TraceSink)
	return sink
}

// wakeLocked signals every goroutine parked on the notify channel. Callers
// hold c.mu.
func (c *Coordinator) wakeLocked() {
	close(c.notify)
	c.notify = make(chan struct{})
}

// dispatchLoop pulls accepted jobs off the backend queue and routes each:
// to the pending list (for a worker lease) when the fleet has live workers,
// inline otherwise.
func (c *Coordinator) dispatchLoop(ctx context.Context) {
	defer c.loopWG.Done()
	for {
		spec, ok := c.cfg.Backend.DequeueJob(ctx)
		if !ok {
			return
		}
		c.offer(spec)
	}
}

// specTenant and specWeight normalize a JobSpec's fair-queue key: specs
// from older coordinators (or tests) without tenant fields land under the
// default tenant at weight 1.
func specTenant(spec JobSpec) string { return tenant.Canonical(spec.Tenant) }

func specWeight(spec JobSpec) int {
	if spec.Weight < 1 {
		return 1
	}
	return spec.Weight
}

// offer routes one dequeued job.
func (c *Coordinator) offer(spec JobSpec) {
	now := time.Now()
	c.mu.Lock()
	if c.liveWorkersLocked(now) > 0 || now.Before(c.graceUntil) {
		c.pending.Push(specTenant(spec), specWeight(spec), spec)
		c.wakeLocked()
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	c.runInline(spec)
}

// liveWorkersLocked counts workers seen within WorkerTTL. Callers hold c.mu.
func (c *Coordinator) liveWorkersLocked(now time.Time) int {
	n := 0
	for _, seen := range c.workers {
		if now.Sub(seen) <= c.cfg.WorkerTTL {
			n++
		}
	}
	return n
}

// runInline executes one job through the backend's single-process path,
// bounded by the inline semaphore.
func (c *Coordinator) runInline(spec JobSpec) {
	c.m.jobsInline.Inc()
	c.inlineWG.Add(1)
	go func() {
		defer c.inlineWG.Done()
		c.inlineSem <- struct{}{}
		defer func() { <-c.inlineSem }()
		c.cfg.Backend.RunJobInline(spec.ID)
	}()
}

// Register records a worker, durably when a fleet log is configured, and
// returns the lease TTL the worker should plan its heartbeats around.
func (c *Coordinator) Register(workerID string) (time.Duration, error) {
	if err := faultinject.Fire("dist.lease"); err != nil {
		return 0, err
	}
	c.mu.Lock()
	_, known := c.workers[workerID]
	c.workers[workerID] = time.Now()
	c.m.workers.Set(int64(len(c.workers)))
	c.mu.Unlock()
	if !known && c.cfg.Fleet != nil {
		if err := c.cfg.Fleet.RecordWorker(workerID); err != nil {
			c.cfg.Logger.Error("fleet log worker record failed", "worker", workerID, "err", err)
		}
	}
	c.cfg.Logger.Info("worker registered", "worker", workerID)
	return c.cfg.LeaseTTL, nil
}

// Lease long-polls for the next pending job on behalf of workerID, waiting
// up to wait before answering (nil, nil) — "nothing yet, poll again". A
// grant's fencing token is write-ahead persisted before the grant returns.
func (c *Coordinator) Lease(ctx context.Context, workerID string, wait time.Duration) (*LeaseGrant, error) {
	if err := faultinject.Fire("dist.lease"); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(wait)
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, nil
		}
		c.workers[workerID] = time.Now()
		if grant, err := c.grantLocked(workerID); grant != nil || err != nil {
			c.mu.Unlock()
			return grant, err
		}
		ch := c.notify
		c.mu.Unlock()

		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, nil
		}
		timer := time.NewTimer(remaining)
		select {
		case <-ch:
			timer.Stop()
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, nil
		case <-c.stop:
			timer.Stop()
			return nil, nil
		}
	}
}

// grantLocked tries to lease the next pending job — weighted-fair across
// tenants — to workerID. It returns (nil, nil) when no job is pending.
// Callers hold c.mu; the lock is released around the fleet-log fsync and
// re-acquired (safe because the popped job is owned by this call: it is in
// neither pending nor leases).
func (c *Coordinator) grantLocked(workerID string) (*LeaseGrant, error) {
	for c.pending.Len() > 0 {
		tname, spec, ok := c.pending.Pop()
		if !ok {
			break
		}
		token := c.tokens[spec.ID] + 1
		if c.cfg.Fleet != nil {
			c.mu.Unlock()
			err := c.cfg.Fleet.RecordToken(spec.ID, token)
			c.mu.Lock()
			if err != nil {
				// Without the durable token the grant is unsafe; put the job
				// back at the head of its tenant's line and surface the spool
				// failure to the worker (503).
				c.pending.PushFront(tname, specWeight(spec), spec)
				return nil, err
			}
		}
		if !c.cfg.Backend.MarkJobRunning(spec.ID, workerID) {
			// The job reached a terminal state or was evicted while queued
			// (e.g. completed by a previous lease); nothing to lease.
			continue
		}
		c.tokens[spec.ID] = token
		c.leases[spec.ID] = &lease{
			spec:     spec,
			worker:   workerID,
			token:    token,
			deadline: time.Now().Add(c.cfg.LeaseTTL),
		}
		c.m.leasesGranted.Inc()
		grant := &LeaseGrant{Job: spec, Token: token, TTLMillis: c.cfg.LeaseTTL.Milliseconds()}
		if sink := c.traceSink(); sink != nil {
			grant.Traceparent = sink.StartLeaseSpan(spec.ID, workerID, token)
		}
		if tc, ok := telemetry.ParseTraceparent(grant.Traceparent); ok {
			c.cfg.Logger.Info("lease granted",
				"job_id", spec.ID, "worker", workerID, "token", token,
				"trace_id", tc.TraceID, "span_id", tc.SpanID)
		} else {
			c.cfg.Logger.Info("lease granted",
				"job_id", spec.ID, "worker", workerID, "token", token)
		}
		return grant, nil
	}
	return nil, nil
}

// checkLeaseLocked verifies that (job, worker, token) names the current
// lease holder, counting a fenced write under op when it does not. Callers
// hold c.mu.
func (c *Coordinator) checkLeaseLocked(jobID, workerID string, token uint64, op string) error {
	l, ok := c.leases[jobID]
	if !ok || l.worker != workerID || l.token != token {
		c.m.fencedWrites.With(op).Inc()
		c.cfg.Logger.Warn("fenced write rejected",
			"job_id", jobID, "worker", workerID, "token", token, "op", op)
		if sink := c.traceSink(); sink != nil {
			sink.RecordFenced(jobID, workerID, op, token)
		}
		return ErrFenced
	}
	return nil
}

// Heartbeat extends the named lease, merging any worker span snapshots
// piggybacked on the beat into the job's trace. A stale token is fenced:
// the sender lost the job and must abandon it, and its spans are rejected
// wholesale — fenced observability data never reaches the trace either
// (DESIGN.md §5.9).
func (c *Coordinator) Heartbeat(jobID, workerID string, token uint64, spans []*telemetry.Span) error {
	c.mu.Lock()
	if err := c.checkLeaseLocked(jobID, workerID, token, "heartbeat"); err != nil {
		c.mu.Unlock()
		return err
	}
	c.leases[jobID].deadline = time.Now().Add(c.cfg.LeaseTTL)
	c.workers[workerID] = time.Now()
	c.m.heartbeats.Inc()
	c.mu.Unlock()
	if len(spans) > 0 {
		if sink := c.traceSink(); sink != nil {
			sink.MergeLeaseSpans(jobID, token, spans)
		}
	}
	return nil
}

// ReceiveCheckpoint ingests one encoded epoch-barrier checkpoint from the
// named lease holder. The checkpoint doubles as a heartbeat. Fenced or
// corrupt checkpoints are rejected without touching the job.
func (c *Coordinator) ReceiveCheckpoint(workerID string, token uint64, data []byte) error {
	ck, err := trace.DecodeCheckpoint(data)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if err := c.checkLeaseLocked(ck.JobID, workerID, token, "checkpoint"); err != nil {
		c.mu.Unlock()
		return err
	}
	c.leases[ck.JobID].deadline = time.Now().Add(c.cfg.LeaseTTL)
	c.workers[workerID] = time.Now()
	c.mu.Unlock()
	if err := c.cfg.Backend.StoreCheckpoint(ck); err != nil {
		return err
	}
	c.m.checkpointsReceived.Inc()
	return nil
}

// ReceiveResult records the named lease holder's terminal result exactly
// once and releases the lease. A stale token is fenced: the job was
// rescheduled and its result belongs to the new holder.
func (c *Coordinator) ReceiveResult(jobID, workerID string, token uint64, errMsg string, result []byte, spans []*telemetry.Span) error {
	c.mu.Lock()
	if err := c.checkLeaseLocked(jobID, workerID, token, "result"); err != nil {
		c.mu.Unlock()
		return err
	}
	// Claim the completion before releasing the lock: a janitor tick
	// between unlock and Complete must not reschedule a job whose result is
	// already in hand.
	events := c.leases[jobID].spec.Events
	delete(c.leases, jobID)
	c.workers[workerID] = time.Now()
	c.mu.Unlock()
	if sink := c.traceSink(); sink != nil {
		if len(spans) > 0 {
			sink.MergeLeaseSpans(jobID, token, spans)
		}
		sink.CloseLeaseSpan(jobID, token, errMsg)
	}
	// A remote run reports its whole trace as replayed and its wall from
	// the lease grant (Wall zero).
	if err := c.cfg.Backend.Complete(jobID, Result{Error: errMsg, Summary: result, Events: uint64(events)}); err != nil {
		return err
	}
	status := "done"
	if errMsg != "" {
		status = "failed"
	}
	c.m.results.With(status).Inc()
	c.cfg.Logger.Info("remote result recorded", "job_id", jobID, "worker", workerID, "status", status)
	return nil
}

// FreshCheckpointEncoded returns the job's newest ingested checkpoint in
// wire form, or nil when the job must replay from scratch.
func (c *Coordinator) FreshCheckpointEncoded(jobID string) ([]byte, error) {
	ck := c.cfg.Backend.FreshCheckpoint(jobID)
	if ck == nil {
		return nil, nil
	}
	return ck.Encode()
}

// janitorLoop periodically expires leases and workers.
func (c *Coordinator) janitorLoop() {
	defer c.loopWG.Done()
	interval := c.cfg.LeaseTTL / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-t.C:
			c.janitorOnce(now)
		}
	}
}

// janitorOnce expires leases whose heartbeats lapsed (rescheduling their
// jobs at the head of their tenant's line, so a crash-looping job is
// retried before the tenant's fresh work without jumping other tenants),
// prunes workers past the worker TTL, and — when the fleet has no live
// workers and the reconnect grace is over — drains the pending queue
// through the inline path so jobs never starve.
func (c *Coordinator) janitorOnce(now time.Time) {
	c.mu.Lock()
	var resched []JobSpec
	var expired []*lease
	for id, l := range c.leases {
		if now.After(l.deadline) {
			delete(c.leases, id)
			c.m.leasesExpired.Inc()
			c.m.jobsRescheduled.Inc()
			resched = append(resched, l.spec)
			expired = append(expired, l)
			resume := uint64(0)
			if ck := c.cfg.Backend.FreshCheckpoint(id); ck != nil {
				resume = ck.NextEvent
			}
			c.cfg.Logger.Warn("lease expired; rescheduling job",
				"job_id", id, "worker", l.worker, "token", l.token, "resume_event", resume)
		}
	}
	if len(resched) > 0 {
		for _, spec := range resched {
			c.pending.PushFront(specTenant(spec), specWeight(spec), spec)
		}
		c.wakeLocked()
	}
	for w, seen := range c.workers {
		if now.Sub(seen) > c.cfg.WorkerTTL {
			delete(c.workers, w)
			c.cfg.Logger.Warn("worker expired", "worker", w)
		}
	}
	c.m.workers.Set(int64(len(c.workers)))
	var inline []JobSpec
	if len(c.workers) == 0 && now.After(c.graceUntil) && c.pending.Len() > 0 {
		inline = c.pending.Drain()
		c.cfg.Logger.Warn("no live workers; draining pending jobs inline", "jobs", len(inline))
	}
	c.mu.Unlock()
	if sink := c.traceSink(); sink != nil {
		// Close expired leases' spans with an error so a rescheduled job's
		// trace shows the failed attempt, not a silently vanished subtree.
		for _, l := range expired {
			sink.CloseLeaseSpan(l.spec.ID, l.token, "lease expired: heartbeats stopped")
		}
	}
	for _, spec := range inline {
		c.runInline(spec)
	}
}

// Stats is a point-in-time view of the fleet for tests and the stats
// endpoint.
type Stats struct {
	LiveWorkers int `json:"liveWorkers"`
	Pending     int `json:"pending"`
	Leased      int `json:"leased"`
}

// Stats snapshots the lease table.
func (c *Coordinator) Stats() Stats {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		LiveWorkers: c.liveWorkersLocked(now),
		Pending:     c.pending.Len(),
		Leased:      len(c.leases),
	}
}

// FleetSnapshot assembles the coordinator's contribution to
// GET /v1/fleet/status: every registered worker with liveness and current
// lease count, queue pressure, and the cumulative dispatch counters.
func (c *Coordinator) FleetSnapshot() FleetSnapshot {
	now := time.Now()
	c.mu.Lock()
	leasesByWorker := make(map[string]int, len(c.workers))
	for _, l := range c.leases {
		leasesByWorker[l.worker]++
	}
	snap := FleetSnapshot{
		Workers: make([]WorkerInfo, 0, len(c.workers)),
		Pending: c.pending.Len(),
		Leased:  len(c.leases),
	}
	for id, seen := range c.workers {
		snap.Workers = append(snap.Workers, WorkerInfo{
			ID:       id,
			LastSeen: seen,
			Live:     now.Sub(seen) <= c.cfg.WorkerTTL,
			Leases:   leasesByWorker[id],
		})
	}
	c.mu.Unlock()
	sort.Slice(snap.Workers, func(i, j int) bool { return snap.Workers[i].ID < snap.Workers[j].ID })
	var fenced int64
	for _, op := range []string{"heartbeat", "checkpoint", "result"} {
		fenced += int64(c.m.fencedWrites.With(op).Value())
	}
	snap.Counters = FleetCounters{
		LeasesGranted:   int64(c.m.leasesGranted.Value()),
		LeasesExpired:   int64(c.m.leasesExpired.Value()),
		Heartbeats:      int64(c.m.heartbeats.Value()),
		FencedWrites:    fenced,
		JobsRescheduled: int64(c.m.jobsRescheduled.Value()),
		JobsInline:      int64(c.m.jobsInline.Value()),
	}
	return snap
}
