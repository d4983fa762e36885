package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/omp"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/stream"
	"repro/internal/tools"
	"repro/internal/trace"
)

// Load shape: one process, at most nproc (2 on the reference box) client
// goroutines and connections.
const clients = 2

// Poll intervals for job completion, far below each workload's median job
// time so polling adds little to the measured latency.
// Each poll costs the client and the daemon CPU that the jobs compete
// for, so the intervals are no shorter than that.
const (
	batchPoll = 10 * time.Millisecond
	fleetPoll = time.Millisecond
)

// streamInterval is the open loop's per-session chunk schedule: about a
// quarter of the 136k events/s the daemon sustains in a closed loop on the
// reference box. At half, the shared 2-CPU host's swings in speed push the
// loop into queueing and finding latency stops being reproducible.
const streamInterval = time.Second / 24

// Fig. 8 configuration, as in the repository's BenchmarkFig8.
const (
	fig8Scale   = 2
	fig8Threads = 4
)

// result accumulates one phase's outcomes.
type result struct {
	mu        sync.Mutex
	attempted int
	failed    int
	refused   int
	wrong     int // findings that differ from ground truth
	problems  []string
	verdicts  []float64 // ms
	stretches []float64 // stream-live sessions
	events    int64
	lags      []float64 // ms
	elapsed   time.Duration
	// cpu is the process's CPU time over the phase (set by load); for
	// paper-fig8, onlineCPU is that of its online runs alone.
	cpu, onlineCPU time.Duration
	// done are the programs of the jobs completed.
	done []*program
	// fig8 keeps per-proxy times, ms.
	native, online, replay map[string][]float64
}

func newResult() *result {
	return &result{native: map[string][]float64{}, online: map[string][]float64{}, replay: map[string][]float64{}}
}

func (r *result) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	switch {
	case errors.Is(err, errRefused):
		r.refused++
	case errors.As(err, new(*truthError)):
		r.wrong++
	}
	if len(r.problems) < 8 {
		r.problems = append(r.problems, err.Error())
	}
}

// ok records a completed operation; prog is its job's program, if any.
func (r *result) ok(verdict time.Duration, events int64, prog *program) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.verdicts = append(r.verdicts, ms(verdict))
	r.events += events
	if prog != nil {
		r.done = append(r.done, prog)
	}
}

func (r *result) lag(d time.Duration) {
	r.mu.Lock()
	r.lags = append(r.lags, ms(d))
	r.mu.Unlock()
}

// truthError marks a ground-truth mismatch.
type truthError struct{ err error }

func (e *truthError) Error() string { return e.err.Error() }

func checkTruth(label string, e expect, reports []report.Report) error {
	if err := e.check(reports); err != nil {
		return &truthError{fmt.Errorf("%s: %w", label, err)}
	}
	return nil
}

// closedLoop has each client take the next input of one shared cycle of n
// and run op on it, back to back, until dur has passed and the cycle under
// way is used up. Every run so measures whole cycles, the same mix, under
// the same two-client contention to its end. lag is the gap between one
// operation ending and the same client's next starting.
func closedLoop(dur time.Duration, n int, res *result, op func(i int)) {
	start := time.Now()
	deadline := start.Add(dur)
	var mu sync.Mutex
	next, stopped := 0, false
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || (next%n == 0 && next > 0 && time.Now().After(deadline)) {
			stopped = true
			return 0, false
		}
		next++
		return next - 1, true
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev time.Time
			for i, ok := take(); ok; i, ok = take() {
				if !prev.IsZero() {
					res.lag(time.Since(prev))
				}
				op(i)
				prev = time.Now()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
}

// jobOp submits one trace and polls until the job is done, then checks its
// findings against ground truth.
func jobOp(cl *http.Client, base string, in *input, poll time.Duration, tr *tracer, req string, res *result) {
	events := int64(in.events)
	root := tr.start("client.job", req, 0)
	start := time.Now()
	acc := tr.start("service.accept", req, root.id())
	var v service.JobView
	err := do(cl, http.MethodPost, base+"/v1/jobs?tool=arbalest", in.body, &v)
	acc.end(events)
	if err != nil {
		root.end(0)
		res.fail(fmt.Errorf("%s: submit: %w", in.prog.label, err))
		return
	}
	wait := tr.start("service.accept_to_done", req, root.id())
	for v.Status != service.StatusDone && v.Status != service.StatusFailed {
		time.Sleep(poll)
		if err = do(cl, http.MethodGet, base+"/v1/jobs/"+v.ID, nil, &v); err != nil {
			break
		}
	}
	verdict := time.Since(start)
	wait.end(events)
	root.end(events)
	switch {
	case err != nil:
		res.fail(fmt.Errorf("%s: poll: %w", in.prog.label, err))
		return
	case v.Status == service.StatusFailed:
		res.fail(fmt.Errorf("%s: job failed: %s", in.prog.label, v.Error))
		return
	case v.Result == nil:
		res.fail(fmt.Errorf("%s: job done without a result", in.prog.label))
		return
	}
	tr.importJob(v.Trace, acc, wait, req)
	if err := checkTruth(in.prog.label, in.prog.truth, v.Result.Reports); err != nil {
		res.fail(err)
		return
	}
	res.ok(verdict, events, in.prog)
}

func runJobs(d *daemon, in *workloadInputs, poll time.Duration, dur time.Duration, tr *tracer, phase string) *result {
	res := newResult()
	cl := newClient()
	defer cl.CloseIdleConnections()
	order := in.order[0]
	closedLoop(dur, len(order), res, func(i int) {
		jobOp(cl, d.srv.URL, in.jobs[order[i%len(order)]], poll, tr, fmt.Sprintf("%s-%d", phase, i), res)
	})
	return res
}

// sessionOp streams one recorded session. With a zero interval the chunks
// go back to back; otherwise chunk k is due at first+k*interval, and a
// planted defect's latency runs from when its chunk was due to when the
// client first sees a finding for it.
func sessionOp(cl *http.Client, base string, s *session, first time.Time, interval time.Duration, tr *tracer, req string, res *result) time.Time {
	due := func(k int) time.Time { return first.Add(time.Duration(k) * interval) }
	root := tr.start("client.session", req, 0)
	defer root.end(int64(s.events))
	op := tr.start("stream.open", req, root.id())
	var v stream.View
	err := do(cl, http.MethodPost, base+"/v1/streams?tool=arbalest", nil, &v)
	op.end(0)
	if err != nil {
		res.fail(fmt.Errorf("stream open: %w", err))
		return due(len(s.chunks))
	}
	url := base + "/v1/streams/" + v.ID
	check := newLiveCheck(s)
	var latency []time.Duration
	cursor := 0
	for k, chunk := range s.chunks {
		if wait := time.Until(due(k)); wait > 0 {
			time.Sleep(wait)
		}
		res.lag(time.Since(due(k)))
		f := tr.start("stream.feed", req, root.id())
		err := do(cl, http.MethodPost, url+"/events", chunk, nil)
		f.end(int64(s.chunkEv[k]))
		if err != nil {
			res.fail(fmt.Errorf("stream events: %w", err))
			_ = do(cl, http.MethodDelete, url, nil, nil)
			return due(len(s.chunks))
		}
		g := tr.start("stream.findings_get", req, root.id())
		var fv stream.FindingsView
		err = do(cl, http.MethodGet, fmt.Sprintf("%s/findings?since=%d", url, cursor), nil, &fv)
		g.end(0)
		if err != nil {
			res.fail(fmt.Errorf("stream findings: %w", err))
			_ = do(cl, http.MethodDelete, url, nil, nil)
			return due(len(s.chunks))
		}
		now := time.Now()
		for _, d := range check.observe(k, fv.Reports) {
			latency = append(latency, now.Sub(due(s.defectChunk[d])))
		}
		cursor = fv.Next
	}
	c := tr.start("stream.close", req, root.id())
	err = do(cl, http.MethodPost, url+"/close", nil, &v)
	c.end(0)
	closed := time.Now()
	if err != nil {
		res.fail(fmt.Errorf("stream close: %w", err))
		return due(len(s.chunks))
	}
	if err := check.err(); err != nil {
		res.fail(&truthError{fmt.Errorf("stream session: %w", err)})
		return due(len(s.chunks))
	}
	if v.Status != stream.StatusDone || v.Events != uint64(s.events) {
		res.fail(fmt.Errorf("stream closed %s with %d of %d events: %s", v.Status, v.Events, s.events, v.Error))
		return due(len(s.chunks))
	}
	res.mu.Lock()
	res.attempted++
	res.events += int64(s.events)
	for _, l := range latency {
		res.verdicts = append(res.verdicts, ms(l))
	}
	if interval > 0 && len(s.chunks) > 1 {
		res.stretches = append(res.stretches, float64(closed.Sub(first))/float64(due(len(s.chunks)-1).Sub(first)))
	}
	res.mu.Unlock()
	return due(len(s.chunks))
}

// runStream is the open loop: each client runs sessions back to back on
// one fixed chunk schedule, so a slow daemon makes later chunks late
// rather than reducing the offered load.
func runStream(d *daemon, in *workloadInputs, dur time.Duration, tr *tracer, phase string) *result {
	res := newResult()
	cl := newClient()
	defer cl.CloseIdleConnections()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Offset the clients by half a slot so their chunks interleave.
			next := start.Add(time.Duration(c) * streamInterval / clients)
			order := in.order[c]
			for i := 0; next.Before(deadline) && time.Now().Before(deadline); i++ {
				s := in.sessions[order[i%len(order)]]
				next = sessionOp(cl, d.srv.URL, s, next, streamInterval, tr, fmt.Sprintf("%s-c%d-%d", phase, c, i), res)
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// runTimes are one pass of a set of programs natively, under online
// ARBALEST and as a warm replay of their recording.
type runTimes struct {
	native, online, replay time.Duration
	onlineCPU              time.Duration // process CPU time of the online runs
	accesses               uint64        // analyzed online
}

// threadConfig is p's runtime with threads simulated threads, or as
// recorded when threads is 0.
func threadConfig(p *program, threads int) omp.Config {
	cfg := p.cfg
	if threads > 0 {
		cfg.NumThreads = threads
	}
	return cfg
}

// runNative times one uninstrumented run of p. The runtime is built
// outside the timed region, as specaccel.Run does: allocating the
// simulated memories is not the program.
func runNative(p *program, threads int) time.Duration {
	rt := omp.NewRuntime(threadConfig(p, threads))
	t0 := time.Now()
	_ = rt.Run(func(c *omp.Context) error { p.run(c); return nil })
	return time.Since(t0)
}

// runOnline times one run of p under online ARBALEST, its runtime built
// outside the timed region, in wall-clock and process CPU time. The caller
// releases the analyzer.
func runOnline(p *program, threads int, stats bool) (wall, cpu time.Duration, a *tools.ArbalestFull) {
	a = tools.NewArbalestFull(nil)
	if stats {
		a.EnableStats()
	}
	rt := omp.NewRuntime(threadConfig(p, threads), a)
	cpu0, t0 := cpuTime(), time.Now()
	_ = rt.Run(func(c *omp.Context) error { p.run(c); return nil })
	return time.Since(t0), cpuTime() - cpu0, a
}

// timeRuns runs each of progs natively and under online ARBALEST with
// threads simulated threads, then replays t, their recording, into an
// analyzer built outside the timed region. t must be warm: its columns
// built by an earlier replay. Every online run and the replay are checked
// against ground truth; label names the replay in a mismatch.
func timeRuns(label string, progs []*program, threads int, t *trace.Trace, tr *tracer, req string) (runTimes, error) {
	var rt runTimes
	var err error
	for _, p := range progs {
		sp := tr.start("omp.native", req, 0)
		d := runNative(p, threads)
		sp.end(0)
		rt.native += d

		sp = tr.start("core.online", req, 0)
		d, cpu, a := runOnline(p, threads, false)
		rt.onlineCPU += cpu
		sp.end(int64(a.AccessCount()))
		rt.online += d
		rt.accesses += a.AccessCount()
		if err == nil {
			err = checkTruth(p.label+" online", p.truth, tools.Summarize(a).Reports)
		}
		a.Release()
	}

	b := tools.NewArbalestFull(nil)
	sp := tr.start("trace.replay_warm", req, 0)
	t0 := time.Now()
	rerr := t.Replay(b)
	rt.replay = time.Since(t0)
	sp.end(int64(len(t.Events)))
	if err == nil {
		err = rerr
	}
	if err == nil {
		err = checkTruth(label+" replay", truthOf(progs), tools.Summarize(b).Reports)
	}
	b.Release()
	return rt, err
}

// fig8Round runs each proxy native, under online ARBALEST and as a warm
// replay of its recorded trace, in the round's seeded order.
func fig8Round(in *workloadInputs, round int, tr *tracer, res *result) {
	req := fmt.Sprintf("fig8-%d", round)
	for _, p := range in.order[round%len(in.order)] {
		x := in.proxies[p]
		// Collect the previous proxy's runtimes first: otherwise whether
		// their simulated memories are still resident depends on where the
		// collector happened to run, and so do the timings and the peak.
		runtime.GC()
		t, err := timeRuns(x.prog.label, []*program{x.prog}, fig8Threads, x.tr, tr, req)
		if err != nil {
			res.fail(err)
			continue
		}
		label := x.prog.label
		res.ok(t.online, int64(t.accesses), nil)
		res.mu.Lock()
		res.onlineCPU += t.onlineCPU
		res.native[label] = append(res.native[label], ms(t.native))
		res.online[label] = append(res.online[label], ms(t.online))
		res.replay[label] = append(res.replay[label], ms(t.replay))
		res.mu.Unlock()
	}
}

func runFig8(in *workloadInputs, dur time.Duration, tr *tracer) *result {
	res := newResult()
	start := time.Now()
	prev := time.Time{}
	for round := 0; time.Since(start) < dur; round++ {
		if !prev.IsZero() {
			res.lag(time.Since(prev))
		}
		fig8Round(in, round, tr, res)
		prev = time.Now()
	}
	res.elapsed = time.Since(start)
	return res
}

// ratioGeomean is the geometric mean over proxies of median(num)/median(den).
func ratioGeomean(num, den map[string][]float64) float64 {
	var logSum float64
	n := 0
	for k, xs := range num {
		if d := median(den[k]); d > 0 && len(xs) > 0 {
			logSum += math.Log(median(xs) / d)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}
