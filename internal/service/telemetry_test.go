package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/telemetry/promtest"
)

// TestEndToEndTelemetry drives a real DRACC trace through the daemon over
// HTTP and checks the full observability surface: the per-job span tree,
// the analyzer-level stats in the result, and a /metrics payload that
// survives the test-local Prometheus parser's structural validation.
func TestEndToEndTelemetry(t *testing.T) {
	tr := recordTrace(t, 22)

	s := New(Config{Workers: 2, AnalyzerStats: true})
	s.Start()
	defer shutdownOrFail(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp := postTrace(t, srv.URL, "arbalest", tr)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status %d, want 202", resp.StatusCode)
	}
	view := decodeView(t, resp)
	settled := waitSettled(t, s, view.ID)
	if settled.Status != StatusDone {
		t.Fatalf("job %q (error %q), want done", settled.Status, settled.Error)
	}

	// The job view embeds the span tree and analyzer stats.
	if settled.Trace == nil {
		t.Fatal("settled job view has no trace")
	}
	if settled.Result == nil || settled.Result.Stats == nil {
		t.Fatalf("settled job has no analyzer stats: %+v", settled.Result)
	}
	st := settled.Result.Stats
	if st.Accesses == 0 || len(st.VSMTransitions) == 0 || st.IntervalLookups == 0 {
		t.Fatalf("analyzer stats look empty: %+v", st)
	}

	// GET /v1/jobs/{id}/trace returns the same tree, and its phases are
	// consistent: every expected child present, durations within the
	// job's end-to-end wall time.
	span := getSpan(t, srv.URL+"/v1/jobs/"+view.ID+"/trace")
	if span.Name != "job" || span.DurationNanos <= 0 {
		t.Fatalf("bad root span: %+v", span)
	}
	for _, phase := range []string{"parse", "queue", "replay", "summarize"} {
		if span.Child(phase) == nil {
			t.Errorf("span tree missing %q child: %+v", phase, span.Children)
		}
	}
	if sum := span.ChildrenNanos(); sum > span.DurationNanos {
		t.Errorf("phase durations %dns exceed job end-to-end %dns", sum, span.DurationNanos)
	}
	if replay := span.Child("replay"); replay != nil {
		if replay.Counts["events"] != int64(len(tr.Events)) {
			t.Errorf("replay span counted %d events, want %d", replay.Counts["events"], len(tr.Events))
		}
		if replay.DurationNanos != settled.WallNanos {
			t.Errorf("replay span %dns != job wall %dns", replay.DurationNanos, settled.WallNanos)
		}
	}
	// The /jobs alias serves the same resource.
	alias := getSpan(t, srv.URL+"/jobs/"+view.ID+"/trace")
	if alias.DurationNanos != span.DurationNanos {
		t.Errorf("alias span differs: %d != %d", alias.DurationNanos, span.DurationNanos)
	}

	// /metrics passes structural validation and carries the histograms
	// and analyzer counters the job must have fed.
	body := getBody(t, srv.URL+"/metrics")
	fams, err := promtest.Validate(body)
	if err != nil {
		t.Fatalf("/metrics failed validation: %v\n%s", err, body)
	}
	for name, want := range map[string]float64{
		"arbalestd_queue_wait_seconds_count":      1,
		"arbalestd_replay_duration_seconds_count": 1,
		"arbalestd_parse_duration_seconds_count":  1,
		"arbalestd_job_duration_seconds_count":    1,
		"arbalestd_jobs_completed_total":          1,
	} {
		s, ok := promtest.Find(fams, name, nil)
		if !ok || s.Value != want {
			t.Errorf("%s = %+v (found %v), want %v", name, s, ok, want)
		}
	}
	// Every transition the job reported must be on /metrics with the
	// same count.
	for _, tr := range st.VSMTransitions {
		s, ok := promtest.Find(fams, "arbalestd_vsm_transitions_total",
			map[string]string{"from": tr.From, "to": tr.To})
		if !ok || uint64(s.Value) != tr.Count {
			t.Errorf("vsm_transitions{%s,%s} = %+v (found %v), want %d", tr.From, tr.To, s, ok, tr.Count)
		}
	}
	if s, ok := promtest.Find(fams, "arbalestd_interval_lookups_total", nil); !ok || s.Value == 0 {
		t.Errorf("interval_lookups_total = %+v (found %v), want > 0", s, ok)
	}
	if _, ok := promtest.Find(fams, "arbalestd_shadow_cas_retries_total", nil); !ok {
		t.Error("shadow_cas_retries_total missing")
	}
	if _, ok := promtest.Find(fams, "arbalestd_replay_nanoseconds_total", nil); ok {
		t.Error("deprecated replay_nanoseconds_total still exposed after its removal release")
	}
	bi := telemetry.Version()
	if _, ok := promtest.Find(fams, "arbalestd_build_info",
		map[string]string{"goversion": bi.GoVersion, "version": bi.Version}); !ok {
		t.Error("build_info series missing")
	}

	// GET /version matches the build info the gauge is labeled with.
	var gotBI telemetry.BuildInfo
	if err := json.Unmarshal([]byte(getBody(t, srv.URL+"/version")), &gotBI); err != nil {
		t.Fatalf("decode /version: %v", err)
	}
	if gotBI != bi {
		t.Errorf("/version = %+v, want %+v", gotBI, bi)
	}
}

// TestTraceEndpointNotFound distinguishes an unknown job from one that
// exists without a span.
func TestTraceEndpointNotFound(t *testing.T) {
	s := New(Config{Workers: 1})
	s.Start()
	defer shutdownOrFail(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/jobs/job-999/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job trace status %d, want 404", resp.StatusCode)
	}
}

// TestStatsDisabledByDefault: without Config.AnalyzerStats the result has
// no stats block — the instrumentation stays dormant.
func TestStatsDisabledByDefault(t *testing.T) {
	tr := recordTrace(t, 22)
	s := New(Config{Workers: 1})
	s.Start()
	defer shutdownOrFail(t, s)

	view, err := s.Submit("arbalest", tr)
	if err != nil {
		t.Fatal(err)
	}
	settled := waitSettled(t, s, view.ID)
	if settled.Status != StatusDone {
		t.Fatalf("job %q (error %q), want done", settled.Status, settled.Error)
	}
	if settled.Result.Stats != nil {
		t.Fatalf("stats collected without opt-in: %+v", settled.Result.Stats)
	}
	if settled.Trace == nil || settled.Trace.Child("replay") == nil {
		t.Fatalf("span tree should exist regardless of stats: %+v", settled.Trace)
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status %d, want 200", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func getSpan(t *testing.T, url string) *telemetry.Span {
	t.Helper()
	var span telemetry.Span
	if err := json.Unmarshal([]byte(getBody(t, url)), &span); err != nil {
		t.Fatalf("decode span from %s: %v", url, err)
	}
	return &span
}
