// Package report renders analysis-tool diagnostics in the style of the LLVM
// sanitizer reports ARBALEST inherits from Archer/ThreadSanitizer (paper
// Fig. 7): a warning header naming the anomaly, the offending access with
// its source location, and the allocation that backs the memory.
package report

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/mem"
	"repro/internal/ompt"
)

// Kind classifies a diagnostic.
type Kind uint8

// The diagnostic kinds produced by the tools in this repository.
const (
	// UUM: use of uninitialized memory.
	UUM Kind = iota
	// USD: use of stale data — the paper's "stale access".
	USD
	// BufferOverflow: a data-mapping-related buffer overflow (paper §IV-D).
	BufferOverflow
	// DataRace: conflicting concurrent accesses without happens-before.
	DataRace
	// InvalidAccess: access outside any live allocation (memcheck/ASan).
	InvalidAccess
)

// kindLabels are the stable machine-readable names used in JSON; String()
// keeps the human-readable sanitizer phrasing.
var kindLabels = map[Kind]string{
	UUM:            "UUM",
	USD:            "USD",
	BufferOverflow: "BufferOverflow",
	DataRace:       "DataRace",
	InvalidAccess:  "InvalidAccess",
}

// Label returns the stable machine-readable name of k ("UUM", "USD",
// "BufferOverflow", "DataRace", "InvalidAccess").
func (k Kind) Label() string {
	if l, ok := kindLabels[k]; ok {
		return l
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// KindFromLabel resolves a machine-readable kind name back to its Kind.
func KindFromLabel(s string) (Kind, bool) {
	for k, l := range kindLabels {
		if l == s {
			return k, true
		}
	}
	return 0, false
}

// MarshalJSON encodes the kind as its stable label string.
func (k Kind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.Label())
}

// UnmarshalJSON decodes a kind from its label string (also accepting the
// numeric form for forward compatibility).
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		kk, ok := KindFromLabel(s)
		if !ok {
			return fmt.Errorf("report: unknown kind label %q", s)
		}
		*k = kk
		return nil
	}
	var n uint8
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("report: kind must be a label string or number: %s", b)
	}
	*k = Kind(n)
	return nil
}

func (k Kind) String() string {
	switch k {
	case UUM:
		return "use of uninitialized memory"
	case USD:
		return "data mapping issue (stale access)"
	case BufferOverflow:
		return "data mapping issue (buffer overflow)"
	case DataRace:
		return "data race"
	case InvalidAccess:
		return "invalid memory access"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Report is one diagnostic. The JSON form is stable: it is what the
// arbalestd analysis service returns and what `arbalest -json` prints.
type Report struct {
	Tool string `json:"tool"`
	Kind Kind   `json:"kind"`
	// Var is the mapped variable's tag.
	Var string `json:"var,omitempty"`
	// Addr and Size describe the offending access.
	Addr  mem.Addr `json:"addr"`
	Size  uint64   `json:"size"`
	Write bool     `json:"write"`
	// Device is where the access executed.
	Device ompt.DeviceID `json:"device"`
	Thread ompt.ThreadID `json:"thread"`
	// Loc is the access's source location.
	Loc ompt.SourceLoc `json:"loc"`
	// Detail carries tool-specific context (VSM state, racing access, ...).
	Detail string `json:"detail,omitempty"`
	// AllocLoc is the allocation site of the underlying memory, if known.
	AllocLoc   ompt.SourceLoc `json:"allocLoc"`
	AllocBytes uint64         `json:"allocBytes,omitempty"`
}

// Key returns a deduplication key: tools report each distinct (kind,
// variable, location) once, as real sanitizers suppress duplicate reports.
func (r *Report) Key() string {
	return fmt.Sprintf("%d|%s|%s", r.Kind, r.Var, r.Loc)
}

// String renders the report in the TSan-flavoured format of paper Fig. 7.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "==================\n")
	fmt.Fprintf(&sb, "WARNING: %s: %s\n", r.Tool, r.Kind)
	rw := "Read"
	if r.Write {
		rw = "Write"
	}
	where := "main thread"
	if r.Device != ompt.HostDevice {
		where = fmt.Sprintf("device %d thread T%d", r.Device, r.Thread)
	}
	fmt.Fprintf(&sb, "  %s of size %d at %#x (%s) by %s:\n", rw, r.Size, uint64(r.Addr), r.Var, where)
	fmt.Fprintf(&sb, "    #0 %s\n", r.Loc)
	if r.Detail != "" {
		fmt.Fprintf(&sb, "  %s\n", r.Detail)
	}
	if !r.AllocLoc.IsZero() || r.AllocBytes != 0 {
		fmt.Fprintf(&sb, "  Location is heap block of size %d allocated by main thread:\n", r.AllocBytes)
		fmt.Fprintf(&sb, "    #0 %s\n", r.AllocLoc)
	}
	fmt.Fprintf(&sb, "SUMMARY: %s: %s %s\n", r.Tool, r.Kind, r.Loc)
	return sb.String()
}

// Sink collects reports with per-key deduplication. It is safe for
// concurrent use.
type Sink struct {
	mu      sync.Mutex
	seen    map[string]int // key -> index into reports
	reports []*Report
	// seqs[i] is the replay clock the i-th report arrived with (0 when it
	// came through Add, i.e. online). AddAt keeps the smallest-clock report
	// per key, so replays that dispatch accesses out of order converge on
	// exactly the report a sequential replay would have kept.
	seqs   []uint64
	sorted bool // true once any nonzero seq was recorded
}

// NewSink returns an empty sink.
func NewSink() *Sink {
	return &Sink{seen: make(map[string]int)}
}

// Add records r unless an equivalent report was already recorded. It reports
// whether r was kept.
func (s *Sink) Add(r *Report) bool {
	return s.AddAt(0, r)
}

// AddAt records r with an ordering clock (a replay sequence number; 0 means
// "no clock", Add's behavior). When a report with the same key already
// exists and both carry clocks, the smaller clock wins — duplicate keys keep
// the report of the earliest access in trace order regardless of the order
// the sink saw them, so the surviving reports do not depend on dispatch
// order. It reports whether r is now the kept report for its key.
func (s *Sink) AddAt(seq uint64, r *Report) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := r.Key()
	if seq != 0 {
		s.sorted = true
	}
	if idx, ok := s.seen[k]; ok {
		if seq != 0 && s.seqs[idx] != 0 && seq < s.seqs[idx] {
			s.reports[idx] = r
			s.seqs[idx] = seq
			return true
		}
		return false
	}
	s.seen[k] = len(s.reports)
	s.reports = append(s.reports, r)
	s.seqs = append(s.seqs, seq)
	return true
}

// Reports returns the recorded reports. Reports carrying replay clocks come
// back in trace order (insertion order otherwise), so every replay path of
// one trace renders identical listings.
func (s *Sink) Reports() []*Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Report, len(s.reports))
	copy(out, s.reports)
	if s.sorted {
		idx := make([]int, len(out))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return s.seqs[idx[a]] < s.seqs[idx[b]] })
		for i, j := range idx {
			out[i] = s.reports[j]
		}
	}
	return out
}

// Count returns the number of distinct reports.
func (s *Sink) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.reports)
}

// CountKind returns the number of reports of kind k.
func (s *Sink) CountKind(k Kind) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, r := range s.reports {
		if r.Kind == k {
			n++
		}
	}
	return n
}

// Kinds returns the distinct kinds recorded, sorted.
func (s *Sink) Kinds() []Kind {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := map[Kind]bool{}
	for _, r := range s.reports {
		set[r.Kind] = true
	}
	out := make([]Kind, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Reset clears the sink.
func (s *Sink) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen = make(map[string]int)
	s.reports = nil
	s.seqs = nil
	s.sorted = false
}
