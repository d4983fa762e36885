package main

import (
	"fmt"
	"strings"

	"repro/internal/dracc"
	"repro/internal/ompt"
	"repro/internal/report"
)

// Ground truth comes only from the input generators: DRACC's defect labels,
// the buffer progen's mutators planted, the postencil pointer-swap bug's
// stale read, and "no findings" for every correct program. It is never
// taken from a detector's output.

// defect is one planted or labelled bug.
type defect struct {
	name string
	// vars are the variable tags its findings may name; nil means any
	// (DRACC labels give only the defect class).
	vars map[string]bool
	// allowed are the kinds its findings may have; at least one finding
	// must have a kind in need.
	allowed, need map[report.Kind]bool
	// site, when known, is where the program's bug is first observable.
	site ompt.SourceLoc
}

// expect is the ground truth of one job or stream session.
type expect struct {
	defects []defect
}

func kinds(ks ...report.Kind) map[report.Kind]bool {
	m := map[report.Kind]bool{}
	for _, k := range ks {
		m[k] = true
	}
	return m
}

func clean() expect { return expect{} }

func draccTruth(d dracc.Defect) expect {
	var ks map[report.Kind]bool
	switch d {
	case dracc.DefectNone:
		return clean()
	case dracc.DefectUUM:
		ks = kinds(report.UUM)
	case dracc.DefectBO:
		ks = kinds(report.BufferOverflow)
	case dracc.DefectUSD:
		// A stale read of never-written data is also uninitialized: the
		// repository's Table III test accepts either.
		ks = kinds(report.USD, report.UUM)
	}
	return expect{defects: []defect{{name: "dracc-" + d.String(), allowed: ks, need: ks}}}
}

// mutantTruth: deleting a load-bearing update makes the buffer stale or
// uninitialized on one side; flipping its entry map(to:) to map(alloc:)
// leaves the device copy uninitialized at its first read.
func mutantTruth(buf string, entry bool) expect {
	need := kinds(report.UUM, report.USD)
	if entry {
		need = kinds(report.UUM)
	}
	return expect{defects: []defect{{
		name: "planted-" + buf, vars: map[string]bool{buf: true},
		allowed: kinds(report.UUM, report.USD), need: need,
	}}}
}

// postencilTruth: after the pointer swap the host reads one of the two grids
// without a target update from, at main.c:145 (the paper's Fig. 7): a use
// of stale data.
func postencilTruth() expect {
	return expect{defects: []defect{{
		name: "postencil-swap", vars: map[string]bool{"a0": true, "anext": true},
		allowed: kinds(report.USD), need: kinds(report.USD),
		site: ompt.SourceLoc{File: "main.c", Line: 145, Func: "main"},
	}}}
}

// truthOf is the ground truth of several programs analyzed together.
func truthOf(progs []*program) expect {
	var out expect
	for _, p := range progs {
		out.defects = append(out.defects, p.truth.defects...)
	}
	return out
}

// match returns the index of the defect a finding belongs to, or -1.
func (e expect) match(r *report.Report) int {
	for i, d := range e.defects {
		if (d.vars == nil || d.vars[r.Var]) && d.allowed[r.Kind] {
			return i
		}
	}
	return -1
}

// check compares findings with the ground truth: every finding must belong
// to a defect, and every defect must be found.
func (e expect) check(reports []report.Report) error {
	found := make([]bool, len(e.defects))
	var problems []string
	for i := range reports {
		r := &reports[i]
		d := e.match(r)
		if d < 0 {
			problems = append(problems, fmt.Sprintf("unexpected %s on %q at %s", r.Kind.Label(), r.Var, r.Loc))
			continue
		}
		if e.defects[d].need[r.Kind] {
			found[d] = true
		}
	}
	for i, ok := range found {
		if !ok {
			problems = append(problems, "missed "+e.defects[i].name)
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("findings differ from ground truth: %s", strings.Join(problems, "; "))
	}
	return nil
}

// liveCheck checks a stream session's findings as they arrive. The daemon
// applies every event of a chunk before acknowledging it, so a finding
// first read after chunk k was raised by chunk k's events, and so by the
// one program that chunk belongs to. It must belong to one of that
// program's defects whose observable event has been sent; every defect of
// the session must be found.
type liveCheck struct {
	s        *session
	found    []bool // per defect of s
	problems []string
}

func newLiveCheck(s *session) *liveCheck {
	return &liveCheck{s: s, found: make([]bool, len(s.defects))}
}

// observe takes the findings first read after chunk k and returns the
// defects of s they found for the first time.
func (c *liveCheck) observe(k int, reports []report.Report) (first []int) {
	p := c.s.chunkProg[k]
	prog := c.s.progs[p]
	for i := range reports {
		r := &reports[i]
		d := prog.truth.match(r)
		if d >= 0 {
			d += c.s.defectBase[p]
		}
		if d < 0 || c.s.defectChunk[d] > k {
			c.problems = append(c.problems, fmt.Sprintf("unexpected %s on %q at %s in chunk %d of %s", r.Kind.Label(), r.Var, r.Loc, k, prog.label))
			continue
		}
		if c.s.defects[d].need[r.Kind] && !c.found[d] {
			c.found[d] = true
			first = append(first, d)
		}
	}
	return first
}

// err reports the unexpected findings and the defects never found.
func (c *liveCheck) err() error {
	problems := c.problems
	for d, ok := range c.found {
		if !ok {
			problems = append(problems, "missed "+c.s.defects[d].name)
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("findings differ from ground truth: %s", strings.Join(problems, "; "))
	}
	return nil
}
