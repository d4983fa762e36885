package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/report"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// The characters BENCHMARK.json allows in names and units.
const (
	nameAllowed  = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-"
	unitAllowed  = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/%.-"
	maxNameChars = 64
)

func TestMetricNamesUseAllowedCharacters(t *testing.T) {
	check := func(name, allowed string, maxLen int) {
		if name == "" || len(name) > maxLen || !strings.ContainsRune("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789", rune(name[0])) {
			t.Errorf("bad name %q", name)
		}
		for _, r := range name {
			if !strings.ContainsRune(allowed, r) {
				t.Errorf("%q: character %q not allowed", name, r)
			}
		}
	}
	seen := map[string]bool{}
	for _, m := range e2eMetrics {
		check(m.Name, nameAllowed, maxNameChars)
		check(m.Unit, unitAllowed, 16)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if seen[m.Name] {
			t.Errorf("%s defined twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range layerMetrics {
		check(m.Name, nameAllowed, maxNameChars)
		check(m.Unit, unitAllowed, 16)
		if seen[m.Name] {
			t.Errorf("%s defined twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, w := range workloads {
		check(w.Name, nameAllowed, maxNameChars)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) || len(b.EndToEnd) != len(e2eMetrics) || len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d workloads, %d end-to-end and %d per-layer metrics; the catalog has %d, %d and %d",
			len(b.Workloads), len(b.EndToEnd), len(b.PerLayer), len(workloads), len(e2eMetrics), len(layerMetrics))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, catalog %+v", i, b.Workloads[i], w)
		}
	}
	for i, m := range e2eMetrics {
		got := b.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, catalog %s %s %s %v", i, got, m.Name, m.Unit, m.Better, m.Bound)
		}
	}
	for i, m := range layerMetrics {
		got := b.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, catalog %s %s %s", i, got, m.Name, m.Unit, m.Better)
		}
	}
}

// TestReportPrintsExactlyTheCatalog: the summary line carries every
// metric of the run's kind, each with its unit, and nothing else; the text
// lines give each a sample count.
func TestReportPrintsExactlyTheCatalog(t *testing.T) {
	res := newResult()
	res.ok(10*time.Millisecond, 100, &program{natives: []float64{1}})
	res.elapsed, res.cpu = time.Second, time.Second
	res.lags = []float64{0.1}
	var e2e, layer []string
	for _, m := range e2eMetrics {
		e2e = append(e2e, m.Name)
	}
	for _, m := range layerMetrics {
		layer = append(layer, m.Name)
	}
	checkPrinted(t, e2eValues("fleet-small", res, []float64{1}, []float64{1}), e2e)
	st := &sweepStats{events: 1, accesses: 1}
	checkPrinted(t, layerValues(&tracer{}, st, res, res, dist.FleetCounters{}, dist.FleetCounters{}, 1, 1), layer)
}

func checkPrinted(t *testing.T, values []metricValue, want []string) {
	t.Helper()
	var out bytes.Buffer
	if err := printReport(&out, "fleet-small", values, []*result{newResult()}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var summary struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatalf("last line is not the JSON summary: %v", err)
	}
	if len(summary.Metrics) != len(want) {
		t.Errorf("summary has %d metrics, want %d", len(summary.Metrics), len(want))
	}
	text := strings.Join(lines[:len(lines)-1], "\n")
	for _, name := range want {
		m, ok := summary.Metrics[name]
		if !ok || m.Unit == "" {
			t.Errorf("%s missing from the summary or without a unit", name)
		}
		if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` +\S+ +\S+ +n=\d+$`).MatchString(text) {
			t.Errorf("%s not printed with its unit and sample count", name)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, b := generate(w.Name, devSeed).hash(), generate(w.Name, devSeed).hash()
		if a != b {
			t.Errorf("%s: seed %d gave inputs %s, then %s", w.Name, devSeed, a, b)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	for _, w := range workloads {
		if a, b := generate(w.Name, devSeed).hash(), generate(w.Name, heldOutSeed).hash(); a == b {
			t.Errorf("%s: seeds %d and %d gave the same inputs", w.Name, devSeed, heldOutSeed)
		}
	}
}

// TestLiveCheckAttributesFindingsToTheirProgram: every program of a stream
// session names its buffers alike, so a finding on g1 raised while a
// correct program's chunk is applied must count as unexpected even though
// a mutant in the same session planted g1.
func TestLiveCheckAttributesFindingsToTheirProgram(t *testing.T) {
	correct := &program{label: "correct", truth: clean()}
	mutant := &program{label: "mutant", truth: mutantTruth("g1", false)}
	s := &session{
		progs:       []*program{correct, mutant},
		chunkProg:   []int{0, 1, 1},
		defects:     mutant.truth.defects,
		defectBase:  []int{0, 0},
		defectChunk: []int{1},
	}
	g1 := []report.Report{{Kind: report.UUM, Var: "g1"}}

	c := newLiveCheck(s)
	if got := c.observe(1, g1); len(got) != 1 || got[0] != 0 {
		t.Errorf("the mutant's own finding found defects %v, want [0]", got)
	}
	if err := c.err(); err != nil {
		t.Errorf("the mutant's own finding: %v", err)
	}

	c = newLiveCheck(s)
	c.observe(0, g1)
	c.observe(1, g1)
	if err := c.err(); err == nil || !strings.Contains(err.Error(), "unexpected") {
		t.Errorf("a g1 finding from the correct program passed the check (err %v)", err)
	}
}

// TestLiveCheckRejectsFindingBeforeItsDefect: a finding that matches a
// defect but arrives before the chunk holding the defect's observable event
// is unexpected, so a defect's latency is never negative.
func TestLiveCheckRejectsFindingBeforeItsDefect(t *testing.T) {
	buggy := &program{label: "postencil", truth: postencilTruth()}
	s := &session{
		progs:       []*program{buggy},
		chunkProg:   []int{0, 0, 0},
		defects:     buggy.truth.defects,
		defectBase:  []int{0},
		defectChunk: []int{2},
	}
	c := newLiveCheck(s)
	c.observe(1, []report.Report{{Kind: report.USD, Var: "a0"}})
	c.observe(2, []report.Report{{Kind: report.USD, Var: "a0"}})
	if err := c.err(); err == nil || !strings.Contains(err.Error(), "unexpected") {
		t.Errorf("a finding before its defect's chunk passed the check (err %v)", err)
	}
}
