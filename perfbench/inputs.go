package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dracc"
	"repro/internal/omp"
	"repro/internal/progen"
	"repro/internal/specaccel"
	"repro/internal/trace"
)

// Inputs are recorded with one simulated thread: with more, the runtime's
// goroutines interleave differently on every recording, and the same seed
// must give byte-identical inputs.
const recordThreads = 1

// smallMem sizes the simulated address spaces of the DRACC and progen
// programs; the runtime's 64 MiB default would dominate their run time.
const smallMem = 4 << 20

// program is one generated input program with its ground truth.
type program struct {
	label string
	cfg   omp.Config
	run   func(c *omp.Context)
	truth expect
	// natives are the program's uninstrumented run times as recorded, ms,
	// from the calibration passes around the measured phase.
	natives []float64
}

// input is one recorded program ready to send.
type input struct {
	prog   *program
	tr     *trace.Trace // nil for batch-large, whose traces are large: decode body instead
	events int
	body   []byte // the upload: JSON lines (batch-large) or framed (fleet-small)
}

// session is one stream-live recording cut into chunks.
type session struct {
	events int
	chunks [][]byte // each a complete framed stream: header plus frames
	// chunkEv and chunkProg are each chunk's event count and the index in
	// progs of the program it belongs to.
	chunkEv, chunkProg []int
	progs              []*program
	// ends is the event count after each program.
	ends []int
	// defects are every program's defects in program order; defectBase is
	// the index there of each program's first, and defectChunk the chunk
	// holding the event that makes each observable.
	defects     []defect
	defectBase  []int
	defectChunk []int
	tr          *trace.Trace
}

// workloadInputs is everything a workload sends, made from the seed alone.
type workloadInputs struct {
	jobs     []*input   // batch-large, fleet-small
	sessions []*session // stream-live
	proxies  []*input   // paper-fig8: scale-2 proxies, traces for warm replay
	// order is the closed loops' one shared cycle of jobs, each stream
	// client's cycle of sessions, or paper-fig8's per-round proxy order.
	order [][]int
}

// programs are every job's program (batch-large, fleet-small).
func (in *workloadInputs) programs() []*program {
	var out []*program
	for _, j := range in.jobs {
		out = append(out, j.prog)
	}
	return out
}

// hash digests every byte the workload will send (and, for paper-fig8, the
// recorded traces it replays), in order.
func (in *workloadInputs) hash() string {
	h := sha256.New()
	for _, j := range in.jobs {
		h.Write(j.body)
	}
	for _, s := range in.sessions {
		for _, c := range s.chunks {
			h.Write(c)
		}
	}
	for _, p := range in.proxies {
		h.Write(p.body)
	}
	for _, o := range in.order {
		h.Write([]byte(fmt.Sprint(o)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func specProgram(w *specaccel.Workload, scale int) *program {
	return &program{
		label: fmt.Sprintf("%s@%d", w.Name, scale),
		cfg:   omp.Config{NumThreads: recordThreads, HostMem: 8 << 20, DeviceMem: 8 << 20},
		run: func(c *omp.Context) {
			if err := w.Run(c, scale); err != nil {
				panic(fmt.Sprintf("%s: %v", w.Name, err))
			}
		},
		truth: clean(),
	}
}

func postencilBuggy(scale int) *program {
	return &program{
		label: fmt.Sprintf("503.postencil-buggy@%d", scale),
		cfg:   omp.Config{NumThreads: recordThreads, HostMem: 8 << 20, DeviceMem: 8 << 20},
		run:   func(c *omp.Context) { specaccel.RunPostencilBuggy(c, scale) },
		truth: postencilTruth(),
	}
}

// unreproducible are DRACC programs whose recordings differ from run to run
// even on one thread (their host tasks interleave), so they cannot be
// seeded inputs.
var unreproducible = map[int]bool{22: true, 42: true}

func draccProgram(b *dracc.Benchmark) *program {
	return &program{
		label: b.Name(),
		// As dracc.RunBenchmark runs ARBALEST: asynchronous kernels forced
		// synchronous (the paper's Theorem-1 procedure).
		cfg:   omp.Config{NumDevices: b.Devices, NumThreads: recordThreads, ForceSync: true, HostMem: smallMem, DeviceMem: smallMem},
		run:   b.Run,
		truth: draccTruth(b.Defect),
	}
}

// progenOps is every generated program's length, so programs are of one
// size and a planted defect's chunk costs about the same in every seed.
const progenOps = 32

// progenBufs is every generated program's buffer count: a stream session
// can hold one mutant per buffer and still tell their findings apart.
const progenBufs = 6

// streamMutants is how many progen mutants a stream session holds. With
// three, the postencil bug, whose defect chunk is larger, is a quarter of
// the planted defects, so client.verdict_p90_ms falls inside its latencies
// rather than on the edge between the two kinds.
const streamMutants = 3

// progenProgram draws a program; mode 0 is correct, 1 deletes a
// load-bearing update (Mutate), 2 flips an entry map(to:) to map(alloc:)
// (MutateEntry). want, when >= 0, asks for the planted buffer to be that
// one, so several mutants in one stream stay distinguishable.
func progenProgram(rng *rand.Rand, mode, want int, tag string) *program {
	for {
		p := progen.Generate(rng, progenBufs, progenOps)
		skip, planted := -1, -1
		switch mode {
		case 1:
			if skip = p.Mutate(rng); skip >= 0 {
				planted = opBuffer(p.Ops()[skip])
			}
		case 2:
			planted = p.MutateEntry(rng)
		}
		if mode != 0 && (planted < 0 || (want >= 0 && planted != want)) {
			continue
		}
		prog := &program{
			label: fmt.Sprintf("progen-%s", tag),
			cfg:   omp.Config{NumThreads: recordThreads, HostMem: smallMem, DeviceMem: smallMem},
			run:   func(c *omp.Context) { p.Run(c, skip) },
			truth: clean(),
		}
		if mode != 0 {
			prog.truth = mutantTruth(fmt.Sprintf("g%d", planted), mode == 2)
			prog.label += fmt.Sprintf("-planted-g%d", planted)
		}
		return prog
	}
}

// opBuffer reads the buffer index from a progen op listing line,
// "07: update-from buf2 [load-bearing]".
func opBuffer(line string) int {
	for _, f := range strings.Fields(line) {
		if n, ok := strings.CutPrefix(f, "buf"); ok {
			if b, err := strconv.Atoi(n); err == nil {
				return b
			}
		}
	}
	panic("progen op without a buffer: " + line)
}

func record(p *program) *trace.Trace {
	rec := trace.NewRecorder()
	rt := omp.NewRuntime(p.cfg, rec)
	// Buggy programs may fault the simulated runtime; that is part of the
	// bug's manifestation (as in dracc.RunBenchmark).
	_ = rt.Run(func(c *omp.Context) error { p.run(c); return nil })
	return rec.Trace()
}

func encodeJSONL(tr *trace.Trace) []byte {
	var b bytes.Buffer
	if err := tr.Save(&b); err != nil {
		panic(err)
	}
	return b.Bytes()
}

func encodeFramed(tr *trace.Trace) []byte {
	var b bytes.Buffer
	if err := tr.SaveFramed(&b); err != nil {
		panic(err)
	}
	return b.Bytes()
}

func makeInput(p *program, framed bool) *input {
	in := &input{prog: p, tr: record(p)}
	in.events = len(in.tr.Events)
	if framed {
		in.body = encodeFramed(in.tr)
	} else {
		in.body = encodeJSONL(in.tr)
		in.tr = nil
	}
	return in
}

// clientOrders draws k seeded permutations of n items.
func clientOrders(rng *rand.Rand, k, n int) [][]int {
	out := make([][]int, k)
	for c := range out {
		out[c] = rng.Perm(n)
	}
	return out
}

// genBatch: every SPEC ACCEL proxy at scales 2, 3 and 4, plus the
// 503.postencil pointer-swap bug at scales 2 and 4. The mix is the same for
// every seed, so medians compare across seeds. Seventeen jobs put the median
// on one job (554.pcg at scale 2) whose neighbours are of similar size, not
// on a gap between sizes. The cycle alternates the smallest and the largest
// job left, so the two clients' concurrent jobs pair the same way whatever
// the seed; the seed draws where in the cycle the run starts.
func genBatch(seed int64) *workloadInputs {
	rng := rand.New(rand.NewSource(seed))
	var progs []*program
	for _, w := range specaccel.All() {
		for scale := 2; scale <= 4; scale++ {
			progs = append(progs, specProgram(w, scale))
		}
	}
	progs = append(progs, postencilBuggy(2), postencilBuggy(4))
	in := &workloadInputs{}
	for _, p := range progs {
		in.jobs = append(in.jobs, makeInput(p, false))
	}
	bySize := make([]int, len(in.jobs))
	for i := range bySize {
		bySize[i] = i
	}
	sort.SliceStable(bySize, func(a, b int) bool { return in.jobs[bySize[a]].events < in.jobs[bySize[b]].events })
	var cycle []int
	for lo, hi := 0, len(bySize)-1; lo <= hi; lo, hi = lo+1, hi-1 {
		cycle = append(cycle, bySize[lo])
		if lo != hi {
			cycle = append(cycle, bySize[hi])
		}
	}
	r := rng.Intn(len(cycle))
	in.order = [][]int{append(cycle[r:], cycle[:r]...)}
	return in
}

// genFleet: the DRACC suite (labelled ground truth) and seeded progen
// programs, some correct and some with one planted defect.
func genFleet(seed int64) *workloadInputs {
	rng := rand.New(rand.NewSource(seed))
	var progs []*program
	for _, b := range dracc.All() {
		if !unreproducible[b.ID] {
			progs = append(progs, draccProgram(b))
		}
	}
	for i := 0; i < 24; i++ {
		mode := []int{0, 0, 0, 1, 1, 2}[i%6]
		progs = append(progs, progenProgram(rng, mode, -1, fmt.Sprint(i)))
	}
	in := &workloadInputs{}
	for _, p := range progs {
		in.jobs = append(in.jobs, makeInput(p, true))
	}
	in.order = clientOrders(rng, 1, len(in.jobs))
	return in
}

// Stream sessions cut chunks at program boundaries and at most every
// chunkEvents events, so each progen mutant lands in one chunk.
const chunkEvents = 1024

// genStream records one session per SPEC ACCEL proxy, so every seed streams
// the same mix. Each session is one run, in one runtime, of a seeded
// interleaving of the proxy at scale 1, the postencil bug, streamMutants
// progen mutants planting distinct buffers and two correct progen programs.
func genStream(seed int64) *workloadInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &workloadInputs{}
	for s, w := range specaccel.All() {
		progs := []*program{specProgram(w, 1), postencilBuggy(1)}
		for b := 0; b < streamMutants; b++ {
			progs = append(progs, progenProgram(rng, 1+rng.Intn(2), b, fmt.Sprintf("%d.%d", s, b)))
		}
		for i := 0; i < 2; i++ {
			progs = append(progs, progenProgram(rng, 0, -1, fmt.Sprintf("%d.c%d", s, i)))
		}
		rng.Shuffle(len(progs), func(i, j int) { progs[i], progs[j] = progs[j], progs[i] })
		in.sessions = append(in.sessions, recordSession(progs))
	}
	in.order = clientOrders(rng, clients, len(in.sessions))
	return in
}

// defectChunk is the chunk holding the event that makes d observable, for
// a program whose events [start, end) end in chunk last. A defect with a
// known site surfaces at its first access there; a progen mutant, which
// fits in one chunk, anywhere in it.
func defectChunk(tr *trace.Trace, d defect, start, end, last int) int {
	if d.site.IsZero() {
		return last
	}
	for e := start; e < end; e++ {
		if a := tr.Events[e].Access; a != nil && a.Loc == d.site {
			return last - (end-1-start)/chunkEvents + (e-start)/chunkEvents
		}
	}
	panic(fmt.Sprintf("defect site %v never reached", d.site))
}

func recordSession(progs []*program) *session {
	rec := trace.NewRecorder()
	rt := omp.NewRuntime(omp.Config{NumThreads: recordThreads, HostMem: 16 << 20, DeviceMem: 16 << 20}, rec)
	var ends []int // event count after each program
	_ = rt.Run(func(c *omp.Context) error {
		for _, p := range progs {
			p.run(c)
			ends = append(ends, rec.Len())
		}
		return nil
	})
	tr := rec.Trace()
	// The runtime's shutdown events follow the last program; streams carry
	// the programs only.
	tr.Events = tr.Events[:ends[len(ends)-1]]
	return cutSession(tr, progs, ends)
}

// cutSession frames the events of progs, which end at ends in tr, as
// stream chunks: a new chunk at every program boundary and at most every
// chunkEvents events.
func cutSession(tr *trace.Trace, progs []*program, ends []int) *session {
	s := &session{events: ends[len(ends)-1], progs: progs, ends: ends, tr: tr}
	start := 0
	for i, p := range progs {
		for lo := start; lo < ends[i]; lo += chunkEvents {
			hi := min(lo+chunkEvents, ends[i])
			chunk := trace.StreamHeader()
			for e := lo; e < hi; e++ {
				var err error
				if chunk, err = trace.AppendEventFrame(chunk, &tr.Events[e]); err != nil {
					panic(err)
				}
			}
			s.chunks = append(s.chunks, chunk)
			s.chunkEv = append(s.chunkEv, hi-lo)
			s.chunkProg = append(s.chunkProg, i)
		}
		s.defectBase = append(s.defectBase, len(s.defects))
		for _, d := range p.truth.defects {
			s.defects = append(s.defects, d)
			s.defectChunk = append(s.defectChunk, defectChunk(tr, d, start, ends[i], len(s.chunks)-1))
		}
		start = ends[i]
	}
	return s
}

// genFig8: the five proxies at the benchmark scale; each round runs them in
// a seeded order.
func genFig8(seed int64) *workloadInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &workloadInputs{}
	for _, w := range specaccel.All() {
		in.proxies = append(in.proxies, makeInput(specProgram(w, fig8Scale), true))
	}
	for r := 0; r < 64; r++ {
		in.order = append(in.order, rng.Perm(len(in.proxies)))
	}
	return in
}

func generate(workload string, seed int64) *workloadInputs {
	switch workload {
	case "batch-large":
		return genBatch(seed)
	case "fleet-small":
		return genFleet(seed)
	case "stream-live":
		return genStream(seed)
	case "paper-fig8":
		return genFig8(seed)
	}
	panic("unknown workload " + workload)
}
