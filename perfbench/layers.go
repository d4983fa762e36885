package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/dist"
	"repro/internal/journal"
	"repro/internal/tools"
	"repro/internal/trace"
)

// A traced run measures every layer on the workload's own inputs: the
// workload's load gives the spans of the path it drives, and a sweep over
// a sample of its inputs calls every layer's public API once more, so each
// per-layer metric is measured on every workload.

// sample is one input the sweep pushes through every layer.
type sample struct {
	label string
	tr    *trace.Trace
	truth expect
	progs []*program
	ends  []int // event count after each program
}

func samples(workload string, in *workloadInputs) []sample {
	var out []sample
	add := func(x *input) {
		tr := x.tr
		if tr == nil {
			var err error
			if tr, err = trace.Load(bytes.NewReader(x.body)); err != nil {
				panic(err) // the benchmark encoded it
			}
		}
		out = append(out, sample{x.prog.label, tr, x.prog.truth, []*program{x.prog}, []int{len(tr.Events)}})
	}
	switch workload {
	case "batch-large":
		for _, i := range in.order[0][:3] {
			add(in.jobs[i])
		}
	case "fleet-small":
		for _, i := range in.order[0][:8] {
			add(in.jobs[i])
		}
	case "stream-live":
		for _, i := range in.order[0][:2] {
			s := in.sessions[i]
			out = append(out, sample{"stream session", s.tr, truthOf(s.progs), s.progs, s.ends})
		}
	case "paper-fig8":
		for _, x := range in.proxies {
			add(x)
		}
	}
	return out
}

// sweepStats are the sweep's counts, kept beside its spans.
type sweepStats struct {
	jsonlBytes, framedBytes, events int64
	lookups, memoHits, accesses     uint64
	casRetries, onlineAccesses      uint64
	shadowPeak                      uint64
	replayOverNative                []float64
}

func sweep(workload string, in *workloadInputs, e *env, tr *tracer, res *result) (*sweepStats, error) {
	st := &sweepStats{}
	jnl, err := journal.Open(filepath.Join(e.dir, "spool-sweep"))
	if err != nil {
		return nil, err
	}
	cl := newClient()
	defer cl.CloseIdleConnections()
	for i, s := range samples(workload, in) {
		req := fmt.Sprintf("sweep-%d", i)
		if err := sweepTrace(s, req, jnl, tr, st); err != nil {
			return nil, fmt.Errorf("%s: %w", s.label, err)
		}
		// The same input through each daemon path.
		x := &input{prog: &program{label: s.label, truth: s.truth}, events: len(s.tr.Events)}
		x.body = encodeJSONL(s.tr)
		jobOp(cl, e.standalone.srv.URL, x, batchPoll, tr, req+"-standalone", res)
		x.body = encodeFramed(s.tr)
		jobOp(cl, e.fleet.srv.URL, x, fleetPoll, tr, req+"-fleet", res)
		sessionOp(cl, e.standalone.srv.URL, cutSession(s.tr, s.progs, s.ends), time.Now(), 0, tr, req+"-stream", res)
	}
	return st, nil
}

// sweepTrace calls the trace, tools, journal, omp and core layers directly.
func sweepTrace(s sample, req string, jnl *journal.Journal, tr *tracer, st *sweepStats) error {
	n := int64(len(s.tr.Events))
	st.events += n

	sp := tr.start("trace.encode", req, 0)
	jsonl := encodeJSONL(s.tr)
	sp.end(n)
	framed := encodeFramed(s.tr)
	st.jsonlBytes += int64(len(jsonl))
	st.framedBytes += int64(len(framed))

	sp = tr.start("trace.decode_jsonl", req, 0)
	cold, err := trace.LoadLimited(bytes.NewReader(jsonl), trace.Limits{})
	sp.end(n)
	if err != nil {
		return err
	}
	sp = tr.start("trace.decode_framed", req, 0)
	_, err = trace.Load(bytes.NewReader(framed))
	sp.end(n)
	if err != nil {
		return err
	}
	sp = tr.start("trace.push_decode", req, 0)
	dec := trace.NewPushDecoder(trace.Limits{})
	err = dec.Push(framed, func(*trace.Event) error { return nil })
	if err == nil {
		err = dec.Finish()
	}
	sp.end(n)
	if err != nil {
		return err
	}

	// Cold replay: a freshly decoded trace, so columnizing is included.
	sp = tr.start("tools.new_analyzer", req, 0)
	a := tools.NewArbalestFull(nil)
	sp.end(0)
	a.EnableStats()
	sp = tr.start("trace.replay_cold", req, 0)
	err = cold.Replay(a)
	sp.end(n)
	if err != nil {
		return err
	}
	sp = tr.start("tools.summarize", req, 0)
	sum := tools.Summarize(a)
	sp.end(0)
	if err := checkTruth(s.label+" replay", s.truth, sum.Reports); err != nil {
		return err
	}
	st.shadowPeak += sum.ShadowBytes
	if sum.Stats != nil {
		st.lookups += sum.Stats.IntervalLookups
		st.memoHits += sum.Stats.RegionMemoHits
		st.accesses += sum.Stats.Accesses
	}
	state, err := a.CheckpointState()
	if err != nil {
		return err
	}
	a.Release()

	for _, w := range []int{1, 2} {
		c := tools.NewArbalestFull(nil)
		sp = tr.start(fmt.Sprintf("trace.replay_w%d", w), req, 0)
		_, err = cold.ReplayParallel(context.Background(), w, c)
		sp.end(n)
		c.Release()
		if err != nil {
			return err
		}
	}

	// Journal operations on a scratch spool, as the daemon performs them.
	id := req + "-job"
	sp = tr.start("journal.append", req, 0)
	err = jnl.Append(journal.Record{ID: id, Tool: "arbalest", Events: int(n), Submitted: time.Now()}, cold)
	sp.end(n)
	if err != nil {
		return err
	}
	result, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	sp = tr.start("journal.mark", req, 0)
	err = jnl.Mark(id, "done", "", result)
	sp.end(0)
	if err != nil {
		return err
	}
	sp = tr.start("journal.fleet_token", req, 0)
	err = jnl.Fleet().RecordToken(id, 1)
	sp.end(0)
	if err != nil {
		return err
	}
	sp = tr.start("journal.checkpoint", req, 0)
	err = jnl.WriteCheckpoint(&trace.Checkpoint{JobID: id, Tool: "arbalest", NextEvent: uint64(n), Events: uint64(n), Created: time.Now(), State: state})
	sp.end(0)
	if err != nil {
		return err
	}
	sw, err := jnl.AppendStream(journal.Record{ID: req + "-stream", Tool: "arbalest", Submitted: time.Now()})
	if err != nil {
		return err
	}
	sp = tr.start("journal.stream_sync", req, 0)
	_, err = sw.Write(framed)
	if err == nil {
		err = sw.Sync()
	}
	sp.end(n)
	if cerr := sw.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	_ = jnl.RemoveCheckpoint(id)
	_ = jnl.Remove(id)
	_ = jnl.RemoveStream(req + "-stream")

	// The programs behind the trace, native and under online ARBALEST, and
	// a warm replay of their recording (cold's columns are built by now),
	// timed as paper-fig8 times them.
	t, err := timeRuns(s.label, s.progs, fig8Threads, cold, tr, req)
	if err != nil {
		return err
	}
	st.replayOverNative = append(st.replayOverNative, float64(t.replay)/float64(t.native))
	// Statistics slow the analysis, so they come from an untimed run.
	for _, p := range s.progs {
		_, _, o := runOnline(p, fig8Threads, true)
		if sum := tools.Summarize(o); sum.Stats != nil {
			st.casRetries += sum.Stats.ShadowCASRetries
			st.onlineAccesses += sum.Stats.Accesses
		}
		o.Release()
	}
	return nil
}

// layerValues derives every per-layer metric from the traced phase's
// spans and counts and the sweep's.
func layerValues(tr *tracer, st *sweepStats, traced, untraced *result, fleet0, fleet1 dist.FleetCounters, fleetJobs int, ops int) []metricValue {
	var out []metricValue
	put := func(name string, v float64, n int) {
		out = append(out, metricValue{name: name, value: v, n: n})
	}
	perEv := func(metric, span string) float64 {
		v, n := tr.nsPerEvent(span)
		put(metric, v, n)
		return v
	}
	medMS := func(metric string, spans ...string) {
		var xs []float64
		for _, s := range spans {
			xs = append(xs, tr.durationsMS(s)...)
		}
		put(metric, median(xs), len(xs))
	}
	dec := perEv("trace.decode_jsonl_ns_per_ev", "trace.decode_jsonl")
	perEv("trace.decode_framed_ns_per_ev", "trace.decode_framed")
	perEv("trace.push_decode_ns_per_ev", "trace.push_decode")
	perEv("trace.encode_ns_per_ev", "trace.encode")
	cold := perEv("trace.replay_cold_ns_per_ev", "trace.replay_cold")
	perEv("trace.replay_warm_ns_per_ev", "trace.replay_warm")
	w1, n1 := tr.nsPerEvent("trace.replay_w1")
	w2, _ := tr.nsPerEvent("trace.replay_w2")
	put("trace.replay_w2_speedup", w1/w2, n1)
	if len(traced.replay) > 0 { // paper-fig8: from the load itself
		put("trace.replay_slowdown", ratioGeomean(traced.replay, traced.native), len(traced.native))
	} else {
		put("trace.replay_slowdown", geomean(st.replayOverNative), len(st.replayOverNative))
	}
	put("trace.bytes_per_ev_jsonl", float64(st.jsonlBytes)/float64(st.events), int(st.events))
	put("trace.bytes_per_ev_framed", float64(st.framedBytes)/float64(st.events), int(st.events))
	put("ratio.decode_over_replay", dec/cold, n1)

	medMS("journal.append_ms", "journal.append")
	medMS("journal.mark_ms", "journal.mark")
	medMS("journal.fleet_token_ms", "journal.fleet_token")
	medMS("journal.checkpoint_ms", "journal.checkpoint")
	medMS("journal.stream_sync_ms", "journal.stream_sync")

	medMS("service.accept_ms", "service.accept")
	medMS("service.accept_to_done_ms", "service.accept_to_done")
	medMS("service.queue_wait_ms", "service.queue")
	put("service.refused_frac", float64(traced.refused)/float64(max(traced.attempted, 1)), traced.attempted)

	medMS("stream.open_ms", "stream.open")
	perEv("stream.feed_ns_per_ev", "stream.feed")
	medMS("stream.findings_get_ms", "stream.findings_get")
	medMS("stream.close_ms", "stream.close")

	medMS("dist.lease_to_done_ms", "dist.lease")
	put("dist.leases_per_job", float64(fleet1.LeasesGranted-fleet0.LeasesGranted)/float64(max(fleetJobs, 1)), fleetJobs)
	put("dist.fenced", float64(fleet1.FencedWrites-fleet0.FencedWrites), fleetJobs)

	us := func(metric, span string) {
		xs := tr.durationsMS(span)
		put(metric, median(xs)*1000, len(xs))
	}
	us("tools.new_analyzer_us", "tools.new_analyzer")
	us("tools.summarize_us", "tools.summarize")

	put("interval.lookups_per_access", float64(st.lookups)/float64(max(st.accesses, 1)), int(st.accesses))
	put("interval.memo_hit_frac", float64(st.memoHits)/float64(max(st.memoHits+st.lookups, 1)), int(st.memoHits+st.lookups))
	put("shadow.cas_retries_per_access", float64(st.casRetries)/float64(max(st.onlineAccesses, 1)), int(st.onlineAccesses))
	put("shadow.peak_bytes", float64(st.shadowPeak), len(st.replayOverNative))

	if len(traced.native) > 0 { // paper-fig8: per-proxy medians, summed
		put("omp.native_ms", sumMedians(traced.native), len(traced.native))
		put("core.online_ms", sumMedians(traced.online), len(traced.online))
	} else {
		total := func(metric, span string) {
			var total float64
			xs := tr.durationsMS(span)
			for _, x := range xs {
				total += x
			}
			put(metric, total, len(xs))
		}
		total("omp.native_ms", "omp.native")
		total("core.online_ms", "core.online")
	}
	p50, p90, rate := wallClock(untraced)
	put("client.verdict_p50_ms", p50, len(untraced.verdicts))
	put("client.verdict_p90_ms", p90, len(untraced.verdicts))
	put("client.events_per_s", rate, int(untraced.events))
	put("process.cpu_us_per_event", cpuPerEvent(untraced), int(untraced.events))
	put("loadgen.lag_p99_ms", quantile(traced.lags, 0.99), len(traced.lags))
	put("tracing.overhead_frac", median(traced.verdicts)/median(untraced.verdicts)-1, len(traced.verdicts))

	self := tr.selfTimes()
	for _, layer := range []string{"client", "service", "trace", "journal", "core", "dist"} {
		put("self."+layer+"_ms", ms(self[layer])/float64(max(ops, 1)), ops)
	}
	return out
}

func sumMedians(m map[string][]float64) float64 {
	var s float64
	for _, xs := range m {
		s += median(xs)
	}
	return s
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var l float64
	for _, x := range xs {
		l += math.Log(x)
	}
	return math.Exp(l / float64(len(xs)))
}
