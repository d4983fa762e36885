// Command perfbench is the repository's end-to-end benchmark of arbalestd
// and the ARBALEST detector behind it.
//
//	go run . --workload batch-large --seed 1 --seconds 10 --trace 0
//
// It generates the workload's inputs from the seed, starts the daemon (and,
// for the fleet, a coordinator and two workers) in this process on loopback
// listeners, drives them for --seconds, checks every finding against the
// generators' ground truth and prints one metric per line followed by a
// JSON summary as the last line. With --trace 1 it instead reports the
// per-layer metrics of catalog.go and writes its spans to
// .bench_build/spans/. README.md describes the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything a run writes, inside the checkout.
const buildDir = ".bench_build"

// setups is how many times a run sets up; setup_s is their median.
const setups = 5

// warmup is how long the load runs before measuring starts.
const warmup = 2 * time.Second

type env struct {
	dir        string
	in         *workloadInputs
	standalone *daemon
	fleet      *daemon
}

func (e *env) stop() {
	if e.standalone != nil {
		e.standalone.stop()
	}
	if e.fleet != nil {
		e.fleet.stop()
	}
}

// setup generates the inputs, starts the daemons the run needs and warms
// them up with one pass of real work.
func setup(workload string, seed int64, traced bool, dir string) (*env, error) {
	e := &env{dir: dir, in: generate(workload, seed)}
	var err error
	if workload == "batch-large" || workload == "stream-live" || traced {
		if e.standalone, err = startStandalone(dir); err != nil {
			return nil, err
		}
	}
	if workload == "fleet-small" || traced {
		if e.fleet, err = startFleet(dir, clients); err != nil {
			e.stop()
			return nil, err
		}
	}
	res := newResult()
	cl := newClient()
	defer cl.CloseIdleConnections()
	switch workload {
	case "batch-large", "fleet-small":
		d, poll := e.standalone, batchPoll
		if workload == "fleet-small" {
			d, poll = e.fleet, fleetPoll
		}
		for _, i := range e.in.order[0][:4] {
			jobOp(cl, d.srv.URL, e.in.jobs[i], poll, nil, "warmup", res)
		}
	case "stream-live":
		sessionOp(cl, e.standalone.srv.URL, e.in.sessions[0], time.Now(), 0, nil, "warmup", res)
	case "paper-fig8":
		for _, x := range e.in.proxies {
			x.tr.Replay() // builds the decode-once columns: replays are warm
		}
		fig8Round(e.in, 0, nil, res)
	}
	if res.failed > 0 {
		e.stop()
		return nil, fmt.Errorf("warm-up failed: %s", strings.Join(res.problems, "; "))
	}
	return e, nil
}

// nativePasses is how many times each program runs uninstrumented just
// before the measured phase and again just after it.
const nativePasses = 5

// calibrate runs every program uninstrumented, as recorded, nativePasses
// times round-robin and keeps each run's time. Round-robin passes spread
// each program's runs over the calibration, so a moment when the host runs
// slow reaches every program alike; taking them next to the measured phase
// lets them see the host as the phase does.
func calibrate(progs []*program) {
	for pass := 0; pass < nativePasses; pass++ {
		for _, p := range progs {
			p.natives = append(p.natives, ms(runNative(p, 0)))
		}
	}
}

func load(e *env, workload string, dur time.Duration, tr *tracer, phase string) *result {
	cpu0 := cpuTime()
	var res *result
	switch workload {
	case "batch-large":
		res = runJobs(e.standalone, e.in, batchPoll, dur, tr, phase)
	case "fleet-small":
		res = runJobs(e.fleet, e.in, fleetPoll, dur, tr, phase)
	case "stream-live":
		res = runStream(e.standalone, e.in, dur, tr, phase)
	default:
		res = runFig8(e.in, dur, tr)
	}
	res.cpu = cpuTime() - cpu0
	return res
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type metricValue struct {
	name  string
	value float64
	n     int // samples behind the value
}

// e2eValues are the end-to-end metrics, the paper's two (slowdown against
// native runs, memory) and set-up time. They are steady on a shared host:
// slowdown_x divides process CPU time, which a busy neighbour inflates far
// less than wall-clock time, or online time, by native runs taken in the
// same run. Wall-clock latency and throughput, and CPU time per event, are
// printed beside them and are per-layer metrics of the traced run.
func e2eValues(workload string, res *result, setupS, rssMB []float64) []metricValue {
	var native float64 // ms
	for _, p := range res.done {
		native += median(p.natives)
	}
	slow, ns := ms(res.cpu)/native, len(res.done)
	switch workload {
	case "stream-live":
		slow, ns = geomean(res.stretches), len(res.stretches)
	case "paper-fig8":
		slow, ns = ratioGeomean(res.online, res.native), len(res.native)
	}
	return []metricValue{
		{"setup_s", median(setupS), len(setupS)},
		{"slowdown_x", slow, ns},
		{"peak_rss_mb", quantile(rssMB, 0.9), len(rssMB)},
	}
}

// wallClock are a phase's wall-clock verdict latency and throughput: what a
// user waits for, but as slow as the shared host happens to be.
func wallClock(res *result) (p50, p90, eventsPerS float64) {
	busy := res.elapsed.Seconds()
	if len(res.online) > 0 { // paper-fig8: the online runs' own time
		busy = 0
		for _, xs := range res.online {
			for _, x := range xs {
				busy += x / 1000
			}
		}
	}
	return median(res.verdicts), quantile(res.verdicts, 0.9), float64(res.events) / busy
}

// cpuPerEvent is a phase's process CPU time per event in microseconds
// (paper-fig8: its online runs' CPU time per access).
func cpuPerEvent(res *result) float64 {
	cpu := res.cpu
	if len(res.online) > 0 {
		cpu = res.onlineCPU
	}
	return float64(cpu.Nanoseconds()) / 1e3 / float64(res.events)
}

func main() {
	workload := flag.String("workload", "", "workload to run: batch-large, fleet-small, stream-live or paper-fig8")
	seed := flag.Int64("seed", devSeed, "input generator seed")
	seconds := flag.Int("seconds", 10, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	known := false
	for _, w := range workloads {
		known = known || w.Name == *workload
	}
	if !known || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload batch-large|fleet-small|stream-live|paper-fig8, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, dur time.Duration, traced bool) error {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	runDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	var e *env
	var setupS []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			e.stop()
			runtime.GC() // the next set-up starts from the same heap
		}
		dir := filepath.Join(runDir, fmt.Sprint("setup", i))
		start := time.Now()
		if e, err = setup(workload, seed, traced, dir); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer e.stop()

	// Run the load, unmeasured, until the heap and the page cache have
	// grown to their steady state; its operations still count as attempted.
	// peak_rss_mb samples the measured phase only.
	warm := load(e, workload, warmup, nil, "warmup")
	// The native runs are the yardstick of slowdown_x, not the system's
	// work: they stay out of setup_s and the measured phase, which they
	// closely precede and follow.
	progs := e.in.programs()
	if !traced {
		calibrate(progs)
	}
	runtime.GC()
	absSpool, _ := filepath.Abs(runDir)
	fmt.Printf("# workload=%s seed=%d trace=%v seconds=%g GOMAXPROCS=%d nproc=%d go=%s spool_fs=%s\n",
		workload, seed, traced, dur.Seconds(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), fsType(absSpool))
	fmt.Printf("# inputs_sha256=%s clients=%d batch_poll=%s fleet_poll=%s stream_chunk_every=%s chunk_events<=%d\n",
		e.in.hash(), clients, batchPoll, fleetPoll, streamInterval, chunkEvents)

	values := []metricValue(nil)
	totals := []*result{warm}
	if !traced {
		rss := startRSSSampler()
		res := load(e, workload, dur, nil, "run")
		rssMB := rss.stop()
		calibrate(progs)
		totals = append(totals, res)
		values = e2eValues(workload, res, setupS, rssMB)
		p50, p90, rate := wallClock(res)
		fmt.Printf("# not gated (per-layer client.*, process.*): verdict_p50_ms=%.6g verdict_p90_ms=%.6g n=%d events_per_s=%.6g cpu_us_per_event=%.6g\n",
			p50, p90, len(res.verdicts), rate, cpuPerEvent(res))
	} else {
		untraced := load(e, workload, dur/2, nil, "untraced")
		tr := &tracer{}
		f0 := e.fleet.coord.FleetSnapshot().Counters
		traced := load(e, workload, dur/2, tr, "traced")
		sres := newResult()
		st, err := sweep(workload, e.in, e, tr, sres)
		if err != nil {
			return fmt.Errorf("layer sweep: %w", err)
		}
		f1 := e.fleet.coord.FleetSnapshot().Counters
		fleetJobs := len(samples(workload, e.in))
		if workload == "fleet-small" {
			fleetJobs += traced.attempted
		}
		totals = append(totals, untraced, traced, sres)
		values = layerValues(tr, st, traced, untraced, f0, f1, fleetJobs, traced.attempted+sres.attempted)
		if err := writeSpans(tr, workload, seed); err != nil {
			return err
		}
	}
	return printReport(os.Stdout, workload, values, totals)
}

func writeSpans(tr *tracer, workload string, seed int64) error {
	dir := filepath.Join(buildDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	fmt.Printf("# spans=%d written to %s\n", len(tr.spans), path)
	return tr.write(path)
}

// printReport prints each metric with its unit, sample count and what it
// means on this workload (or, for a layer metric, what it should move), then
// the JSON summary line. A ground-truth mismatch makes the run fail.
func printReport(w io.Writer, workload string, values []metricValue, totals []*result) error {
	units, notes := map[string]string{}, map[string]string{}
	for _, m := range e2eMetrics {
		units[m.Name] = m.Unit
		if notes[m.Name] = m.Means[workload]; notes[m.Name] == "" {
			notes[m.Name] = m.Means["*"]
		}
	}
	for _, m := range layerMetrics {
		units[m.Name] = m.Unit
		notes[m.Name] = "moves " + m.Moves
	}
	attempted, failed, wrong := 0, 0, 0
	var problems []string
	for _, r := range totals {
		attempted += r.attempted
		failed += r.failed
		wrong += r.wrong
		problems = append(problems, r.problems...)
	}
	for _, p := range problems {
		fmt.Fprintf(w, "# failure: %s\n", p)
	}
	out := map[string]any{}
	for _, v := range values {
		if math.IsNaN(v.value) || math.IsInf(v.value, 0) {
			v.value = 0
		}
		fmt.Fprintf(w, "%-32s %14.6g %-6s n=%d\n", v.name, v.value, units[v.name], v.n)
		fmt.Fprintf(w, "#   %s\n", notes[v.name])
		out[v.name] = map[string]any{"value": v.value, "unit": units[v.name]}
	}
	// Failures are the summary's failed and attempted counts, not a metric.
	fmt.Fprintf(w, "# failed_frac=%g (%d of %d operations failed; %d differ from ground truth)\n", float64(failed)/float64(max(attempted, 1)), failed, attempted, wrong)
	line, err := json.Marshal(map[string]any{
		"correct": wrong == 0, "attempted": max(attempted, 1), "failed": failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	if wrong > 0 {
		return fmt.Errorf("%d operations returned findings that differ from ground truth", wrong)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// rssSampler records the process's peak resident set size in each window
// of rssWindow: one run's overall peak depends on where a garbage
// collection happens to fall, a high quantile of the window peaks less so,
// while it still catches a peak that lasts a tenth of the run.
type rssSampler struct {
	stopc chan struct{}
	done  chan []float64
}

const rssWindow = 500 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan []float64, 1)}
	resetPeakRSS()
	go func() {
		var peaks []float64
		tick := time.NewTicker(rssWindow)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peaks = append(peaks, peakRSSMB())
				resetPeakRSS()
			case <-s.stopc:
				s.done <- append(peaks, peakRSSMB())
				return
			}
		}
	}()
	return s
}

// stop ends sampling and returns the window peaks in MB.
func (s *rssSampler) stop() []float64 {
	close(s.stopc)
	return <-s.done
}

// peakRSSMB reads the process's high-water resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// resetPeakRSS restarts VmHWM from the current resident set size.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// fsType names the filesystem holding path, from the longest matching
// mount point.
func fsType(path string) string {
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (path == mp || strings.HasPrefix(path, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
