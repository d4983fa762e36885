package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// tracer keeps spans in memory and writes them when the run ends. Spans
// come from the benchmark's own code, around its calls into each layer's
// public API, plus the span trees the daemon already returns with each job
// (imported under the client span each phase happened in). A nil tracer
// records nothing, which is the untraced run.
type tracer struct {
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

// span's name is "<layer>.<operation>"; req groups the spans of one
// request (a job, a stream session, a Fig. 8 round).
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent,omitempty"`
	Req    string    `json:"req"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	// Events is the work the span covered, for per-event rates.
	Events int64 `json:"events,omitempty"`
}

// open is a started span; a nil *open (from a nil tracer) is inert.
type open struct {
	t *tracer
	s span
}

func (t *tracer) start(name, req string, parent int64) *open {
	if t == nil {
		return nil
	}
	return &open{t: t, s: span{ID: t.next.Add(1), Parent: parent, Req: req, Name: name, Start: time.Now()}}
}

func (o *open) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// end closes the span with the number of events it covered.
func (o *open) end(events int64) {
	if o == nil {
		return
	}
	o.s.End = time.Now()
	o.s.Events = events
	o.t.add(o.s)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// serverLayer names the layer of a span from the daemon's job tree.
var serverLayer = map[string]string{
	"parse":     "trace.decode_upload",
	"journal":   "journal.append",
	"queue":     "service.queue",
	"replay":    "core.replay",
	"summarize": "tools.summarize",
	"lease":     "dist.lease",
	"fenced":    "dist.fenced",
}

// importJob copies the daemon's span tree for one job: each phase goes
// under the client span it happened in, the upload (parsing and journaling
// happen before the daemon answers) or the wait for completion.
func (t *tracer) importJob(job *telemetry.Span, upload, wait *open, req string) {
	if t == nil || job == nil {
		return
	}
	for _, c := range job.Children {
		parent := wait.id()
		if c.Start.Before(upload.s.End) {
			parent = upload.id()
		}
		t.importTree(c, parent, req, false)
	}
}

// importTree copies a daemon span subtree under parent. Worker spans merged
// into a lease belong to the dist layer.
func (t *tracer) importTree(sp *telemetry.Span, parent int64, req string, inLease bool) {
	if sp.DurationNanos == 0 {
		return
	}
	name, ok := serverLayer[sp.Name]
	if !ok || inLease {
		name = "dist." + sp.Name
	}
	s := span{ID: t.next.Add(1), Parent: parent, Req: req, Name: name, Start: sp.Start, End: sp.Start.Add(sp.Duration())}
	t.add(s)
	for _, c := range sp.Children {
		t.importTree(c, s.ID, req, inLease || sp.Name == "lease")
	}
}

func (t *tracer) byName(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durationsMS lists the named spans' durations in milliseconds.
func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range t.byName(name) {
		out = append(out, ms(s.End.Sub(s.Start)))
	}
	return out
}

// nsPerEvent is the named spans' total time over their total events.
func (t *tracer) nsPerEvent(name string) (float64, int) {
	var d time.Duration
	var ev int64
	spans := t.byName(name)
	for _, s := range spans {
		d += s.End.Sub(s.Start)
		ev += s.Events
	}
	if ev == 0 {
		return 0, len(spans)
	}
	return float64(d.Nanoseconds()) / float64(ev), len(spans)
}

// selfTimes sums, per layer (the name's prefix), each span's duration less
// the part of it its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	kids := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += s.End.Sub(s.Start) - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	var total time.Duration
	cur, curEnd := p.Start, p.Start
	for _, k := range kids {
		s, e := maxTime(k.Start, p.Start), minTime(k.End, p.End)
		if !e.After(s) {
			continue
		}
		if s.After(curEnd) {
			total += curEnd.Sub(cur)
			cur, curEnd = s, e
		} else if e.After(curEnd) {
			curEnd = e
		}
	}
	return total + curEnd.Sub(cur)
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
