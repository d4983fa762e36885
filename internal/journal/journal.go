// Package journal is arbalestd's write-ahead job journal: a spool
// directory that makes accepted jobs survive a daemon crash.
//
// Each accepted job gets up to three files under the spool directory:
//
//	<id>.trace  the submitted trace in the CRC32C-framed encoding, written
//	            and fsynced before the job is acknowledged (the write-ahead
//	            part)
//	<id>.meta   an append-only log of lifecycle transitions: the first line
//	            carries the job's identity (tool, events, idempotency key,
//	            submit time) with status "pending"; subsequent lines record
//	            running/done/failed transitions. Each line is CRC-framed:
//	            "c2 <crc32c-hex8> <json>\n" (bare legacy JSON lines are
//	            still accepted on read)
//	<id>.ckpt   the job's latest replay checkpoint (trace.Checkpoint),
//	            written atomically at epoch boundaries while the job runs
//
// On startup, Recover scans the spool: jobs whose last recorded status is
// pending or running are returned with their traces — and their latest
// valid checkpoint, when one exists — so the service can re-enqueue each
// exactly once and resume from where the crash cut it off; jobs already
// done or failed are returned as history (without traces) so job listings
// and idempotency-key dedup survive the restart. Remove deletes all three
// files when the retention GC evicts a job.
//
// Corruption tolerance: a torn trailing meta line (crash mid-append) is
// truncated off and counted, not fatal; a corrupt line in the middle of a
// meta log (bit rot) is skipped and counted, so the entries after it still
// apply; a corrupt checkpoint is dropped and counted — the job re-runs
// from the trace, which is always correct, just slower.
//
// Fault points (package faultinject): "journal.append" and "journal.mark"
// can inject write errors, "journal.fsync" can inject fsync latency, and
// "journal.checkpoint" can inject checkpoint-write errors or latency.
package journal

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/trace"
)

// The lifecycle statuses a journal records. They mirror the service's job
// states but are kept as plain strings so the journal stays a layer below
// the service.
const (
	StatusPending = "pending"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// Entry is one line of a job's meta log. The first line of a file has
// Status "pending" and carries the job's identity; later lines only need
// Status plus the terminal fields.
type Entry struct {
	ID        string    `json:"id,omitempty"`
	Tool      string    `json:"tool,omitempty"`
	Key       string    `json:"key,omitempty"`    // idempotency key, optional
	Tenant    string    `json:"tenant,omitempty"` // owning tenant, "" for the default
	Events    int       `json:"events,omitempty"`
	Submitted time.Time `json:"submitted,omitempty"`
	// DeadlineMs is the client-propagated completion deadline in Unix
	// milliseconds, 0 when none — persisted so a recovered job can still
	// be shed instead of replayed when its deadline already passed.
	DeadlineMs int64           `json:"deadlineMs,omitempty"`
	Status     string          `json:"status"`
	Time       time.Time       `json:"time"`
	Error      string          `json:"error,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// Record identifies a job at accept time.
type Record struct {
	ID        string
	Tool      string
	Key       string // idempotency key, "" if the client sent none
	Tenant    string // owning tenant, "" for the default tenant
	Events    int
	Submitted time.Time
	Deadline  time.Time // client-propagated completion deadline, zero when none
}

// RecoveredJob is one job found in the spool by Recover.
type RecoveredJob struct {
	Record
	// Status is the job's last journaled status. Pending and running jobs
	// carry a Trace; terminal jobs carry Error/Result instead.
	Status   string
	Trace    *trace.Trace
	Started  time.Time
	Finished time.Time
	Error    string
	Result   json.RawMessage
	// Checkpoint is the job's latest valid replay checkpoint, nil when none
	// was written or the file failed its CRC check (then the job simply
	// re-runs from event zero).
	Checkpoint *trace.Checkpoint
}

// RecoverStats counts the corruption Recover repaired while scanning the
// spool. The service folds these into its metrics.
type RecoverStats struct {
	// TruncatedRecords is the number of torn or corrupt meta lines dropped:
	// torn trailing lines are truncated off the file, corrupt mid-file
	// lines are skipped.
	TruncatedRecords int
	// DroppedCheckpoints is the number of checkpoint files discarded
	// because they failed CRC or sanity checks.
	DroppedCheckpoints int
}

// Journal persists job traces and lifecycle transitions under one spool
// directory. Methods are safe for concurrent use on distinct job IDs; the
// service serializes transitions for a single job by construction (a job
// is owned by one worker at a time).
//
// The journal additionally tracks whether the spool is writable: any append,
// mark, or checkpoint write failure (ENOSPC, a yanked disk, an injected
// fault) flips an unwritable flag, and Writable probes the directory before
// reporting healthy again. The daemon's /readyz degrades to 503 while the
// spool is unwritable, so load balancers shed traffic from an instance that
// can no longer honor the write-ahead contract — each individual failure
// still fails only the job or session that hit it, never the process.
type Journal struct {
	dir string

	// writable is false after a spool write failure until a probe write
	// succeeds. Stored inverted (0 = writable) so the zero value of the
	// field matches a freshly opened, healthy journal.
	unwritable atomic.Bool
}

// Open creates the spool directory if needed and returns a Journal over
// it.
func Open(dir string) (*Journal, error) {
	if dir == "" {
		return nil, errors.New("journal: empty spool directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{dir: dir}, nil
}

// Dir returns the spool directory path.
func (j *Journal) Dir() string { return j.dir }

func (j *Journal) tracePath(id string) string { return filepath.Join(j.dir, id+".trace") }
func (j *Journal) metaPath(id string) string  { return filepath.Join(j.dir, id+".meta") }
func (j *Journal) ckptPath(id string) string  { return filepath.Join(j.dir, id+".ckpt") }

// noteWrite records the outcome of a spool write: a failure marks the spool
// unwritable (readiness degrades), a success marks it healthy again.
func (j *Journal) noteWrite(err error) {
	j.unwritable.Store(err != nil)
}

// Writable reports whether the spool directory is accepting writes. While
// the unwritable flag is set, each call attempts a small probe write (the
// probe honors the "journal.append" fault point, so an injected disk-full
// fault keeps the journal unhealthy exactly like a real full disk would);
// the flag clears as soon as a probe lands. The common healthy path is one
// atomic load.
func (j *Journal) Writable() bool {
	if !j.unwritable.Load() {
		return true
	}
	if err := j.probe(); err != nil {
		return false
	}
	j.unwritable.Store(false)
	return true
}

// probe attempts a tiny durable write, then removes it.
func (j *Journal) probe() error {
	if err := faultinject.Fire("journal.append"); err != nil {
		return err
	}
	path := filepath.Join(j.dir, ".probe")
	if err := replaceFile(path, []byte("ok")); err != nil {
		return err
	}
	return os.Remove(path)
}

// Append journals a newly accepted job: the trace first, fsynced, then
// the initial pending meta entry, fsynced. If any step fails the partial
// files are removed so a failed accept leaves no spool residue, and the
// caller must reject the submission — the write-ahead contract is that a
// job is only acknowledged after Append returns nil.
func (j *Journal) Append(rec Record, tr *trace.Trace) error {
	if err := faultinject.Fire("journal.append"); err != nil {
		j.noteWrite(err)
		return err
	}
	if err := j.writeTrace(rec.ID, tr); err != nil {
		j.removeFiles(rec.ID)
		return err
	}
	first := Entry{
		ID: rec.ID, Tool: rec.Tool, Key: rec.Key, Tenant: rec.Tenant, Events: rec.Events,
		Submitted: rec.Submitted, DeadlineMs: deadlineMs(rec.Deadline),
		Status: StatusPending, Time: rec.Submitted,
	}
	if err := j.appendFramed("", j.metaPath(rec.ID), first); err != nil {
		j.removeFiles(rec.ID)
		return err
	}
	return nil
}

// Mark appends a lifecycle transition for the job. errMsg and result are
// only meaningful for the failed and done statuses respectively. A mark
// failure is not fatal to the job — the service logs it and continues —
// but a crash before a terminal mark means the job is re-run on recovery,
// which is the at-least-once side of the write-ahead design (idempotency
// keys make the rerun invisible to clients).
func (j *Journal) Mark(id, status, errMsg string, result json.RawMessage) error {
	return j.appendFramed("journal.mark", j.metaPath(id), Entry{
		Status: status, Time: time.Now(), Error: errMsg, Result: result,
	})
}

// Remove deletes the job's spool files (retention GC).
func (j *Journal) Remove(id string) error {
	var firstErr error
	for _, p := range []string{j.tracePath(id), j.metaPath(id), j.ckptPath(id)} {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// WriteCheckpoint atomically persists the job's latest replay checkpoint,
// replacing any previous one. Honors the "journal.checkpoint" fault point.
func (j *Journal) WriteCheckpoint(ck *trace.Checkpoint) error {
	if err := faultinject.Fire("journal.checkpoint"); err != nil {
		j.noteWrite(err)
		return err
	}
	data, err := ck.Encode()
	if err == nil {
		err = replaceFile(j.ckptPath(ck.JobID), data)
	}
	j.noteWrite(err)
	return err
}

// ReadCheckpoint loads the job's checkpoint. os.ErrNotExist when none was
// written; *trace.CorruptionError when the file fails its CRC check.
func (j *Journal) ReadCheckpoint(id string) (*trace.Checkpoint, error) {
	return trace.ReadCheckpointFile(j.ckptPath(id))
}

// RemoveCheckpoint deletes the job's checkpoint file, if any (terminal
// jobs no longer need one).
func (j *Journal) RemoveCheckpoint(id string) error {
	if err := os.Remove(j.ckptPath(id)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// Recover scans the spool directory and reconstructs every journaled job
// from its meta log. Jobs whose last status is pending or running are
// loaded with their traces (ready to re-enqueue) and their latest valid
// checkpoint; terminal jobs are returned as history. Jobs with unreadable
// meta or trace files are skipped and reported in the returned error
// list — recovery is best effort per job, never all-or-nothing — and the
// corruption repaired along the way (torn meta lines truncated, corrupt
// checkpoints dropped) is counted in RecoverStats. Results are sorted by
// ID so replay order is deterministic.
func (j *Journal) Recover() ([]RecoveredJob, RecoverStats, []error) {
	var stats RecoverStats
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, stats, []error{fmt.Errorf("journal: %w", err)}
	}
	var jobs []RecoveredJob
	var errs []error
	for _, de := range entries {
		name := de.Name()
		if !strings.HasSuffix(name, ".meta") {
			continue
		}
		// Subsystem logs share the spool and the framing but are not job
		// lifecycle logs; their owners recover them separately.
		if name == fleetFile || name == tenantFile {
			continue
		}
		id := strings.TrimSuffix(name, ".meta")
		rj, err := j.recoverOne(id, &stats)
		if err != nil {
			errs = append(errs, &JobError{ID: id, Err: err})
			continue
		}
		jobs = append(jobs, rj)
	}
	sort.Slice(jobs, func(a, b int) bool {
		// Numeric-aware so job-10 sorts after job-9.
		x, y := jobs[a].ID, jobs[b].ID
		if len(x) != len(y) {
			return len(x) < len(y)
		}
		return x < y
	})
	return jobs, stats, errs
}

// JobError is a recovery failure scoped to one spooled job, so callers
// can log the job id as a structured attribute. Its message matches the
// historical "journal: job <id>: <cause>" format.
type JobError struct {
	ID  string
	Err error
}

// Error implements error.
func (e *JobError) Error() string { return fmt.Sprintf("journal: job %s: %v", e.ID, e.Err) }

// Unwrap exposes the cause to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// deadlineMs converts a deadline to Unix milliseconds (0 for none).
func deadlineMs(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixMilli()
}

// msToDeadline is the inverse of deadlineMs.
func msToDeadline(ms int64) time.Time {
	if ms == 0 {
		return time.Time{}
	}
	return time.UnixMilli(ms)
}

// metaCRC is the CRC32C table framing meta lines.
var metaCRC = crc32.MakeTable(crc32.Castagnoli)

// metaFramePrefix opens a CRC-framed meta line: "c2 <crc32c-hex8> <json>".
const metaFramePrefix = "c2 "

// frameMetaLine wraps one marshaled entry in the CRC frame, newline
// included.
func frameMetaLine(payload []byte) []byte {
	out := make([]byte, 0, len(metaFramePrefix)+8+1+len(payload)+1)
	out = append(out, metaFramePrefix...)
	var sum [4]byte
	crc := crc32.Checksum(payload, metaCRC)
	sum[0], sum[1], sum[2], sum[3] = byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc)
	out = hex.AppendEncode(out, sum[:])
	out = append(out, ' ')
	out = append(out, payload...)
	return append(out, '\n')
}

// parseFramedPayload verifies one CRC-framed meta line and returns its
// payload. Bare lines without the frame prefix (the pre-framing format) are
// returned as-is. A false result means the frame is torn or corrupt.
func parseFramedPayload(raw []byte) ([]byte, bool) {
	if !bytes.HasPrefix(raw, []byte(metaFramePrefix)) {
		return raw, true
	}
	rest := raw[len(metaFramePrefix):]
	if len(rest) < 9 || rest[8] != ' ' {
		return nil, false
	}
	sum, err := hex.DecodeString(string(rest[:8]))
	if err != nil {
		return nil, false
	}
	payload := rest[9:]
	want := uint32(sum[0])<<24 | uint32(sum[1])<<16 | uint32(sum[2])<<8 | uint32(sum[3])
	if crc32.Checksum(payload, metaCRC) != want {
		return nil, false
	}
	return payload, true
}

// parseMetaLine decodes one meta line into an Entry. CRC-framed lines are
// verified; bare JSON lines (the pre-framing format) are accepted as-is. A
// false result means the line is torn or corrupt.
func parseMetaLine(raw []byte) (Entry, bool) {
	payload, ok := parseFramedPayload(raw)
	if !ok {
		return Entry{}, false
	}
	var e Entry
	if err := json.Unmarshal(payload, &e); err != nil {
		return Entry{}, false
	}
	return e, true
}

// readMetaLog reads and repairs one meta log, returning its valid entries
// in order. Torn or corrupt lines are repaired in place: a bad trailing
// line (crash mid-append) is truncated off the file, and a bad mid-file
// line is skipped so the entries after it still apply — both are counted
// in stats.TruncatedRecords. Only an unreadable first line is fatal, since
// without it the record has no identity. Shared by job (.meta) and stream
// (.smeta) recovery.
func readMetaLog(path string, stats *RecoverStats) ([]Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []Entry
	line := 0
	var off int64 // byte offset of the line being parsed
	for len(data) > 0 {
		var raw []byte
		nl := bytes.IndexByte(data, '\n')
		lineLen := int64(nl) + 1
		if nl < 0 {
			raw, data = data, nil
			lineLen = int64(len(raw))
		} else {
			raw, data = data[:nl], data[nl+1:]
		}
		if len(bytes.TrimSpace(raw)) == 0 {
			off += lineLen
			continue
		}
		line++
		e, ok := parseMetaLine(raw)
		if !ok {
			if line == 1 {
				return nil, fmt.Errorf("meta line 1 is torn or corrupt")
			}
			stats.TruncatedRecords++
			if len(bytes.TrimSpace(data)) == 0 {
				// Torn trailing record (crash mid-append): cut it off so the
				// next recovery — and any other reader — sees a clean log.
				if terr := os.Truncate(path, off); terr != nil {
					return nil, fmt.Errorf("truncating torn meta record: %w", terr)
				}
				break
			}
			// Corrupt line with valid records after it (bit rot): skip it
			// but keep applying the later transitions, so a corrupt
			// mid-file line cannot silently resurrect an already-finished
			// record.
			off += lineLen
			continue
		}
		off += lineLen
		entries = append(entries, e)
	}
	if line == 0 {
		return nil, errors.New("empty meta file")
	}
	return entries, nil
}

// recoverOne reads one job's meta log and, for non-terminal jobs, its
// trace and latest checkpoint.
func (j *Journal) recoverOne(id string, stats *RecoverStats) (RecoveredJob, error) {
	entries, err := readMetaLog(j.metaPath(id), stats)
	if err != nil {
		return RecoveredJob{}, err
	}

	var rj RecoveredJob
	for i, e := range entries {
		if i == 0 {
			if e.ID != id {
				return RecoveredJob{}, fmt.Errorf("meta identity %q does not match file %q", e.ID, id)
			}
			rj.Record = Record{
				ID: e.ID, Tool: e.Tool, Key: e.Key, Tenant: e.Tenant,
				Events: e.Events, Submitted: e.Submitted, Deadline: msToDeadline(e.DeadlineMs),
			}
		}
		rj.Status = e.Status
		switch e.Status {
		case StatusRunning:
			rj.Started = e.Time
		case StatusDone, StatusFailed:
			rj.Finished = e.Time
			rj.Error = e.Error
			rj.Result = e.Result
		}
	}
	if rj.Status == StatusPending || rj.Status == StatusRunning {
		tf, err := os.Open(j.tracePath(id))
		if err != nil {
			return RecoveredJob{}, err
		}
		defer tf.Close()
		tr, err := trace.Load(tf)
		if err != nil {
			return RecoveredJob{}, err
		}
		rj.Trace = tr
		// A checkpoint is an optimization, never a requirement: a corrupt
		// one is dropped (and deleted, so it cannot fail again next boot)
		// and the job re-runs from the trace.
		if ck, err := j.ReadCheckpoint(id); err == nil {
			rj.Checkpoint = ck
		} else if !errors.Is(err, os.ErrNotExist) {
			stats.DroppedCheckpoints++
			_ = os.Remove(j.ckptPath(id))
		}
	}
	return rj, nil
}

// writeTrace writes and fsyncs the job's trace file in the CRC32C-framed
// encoding, so later corruption of the spool is detected at read time
// instead of silently mis-parsing.
func (j *Journal) writeTrace(id string, tr *trace.Trace) (err error) {
	defer func() { j.noteWrite(err) }()
	f, err := os.OpenFile(j.tracePath(id), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := tr.SaveFramed(f); err != nil {
		f.Close()
		return err
	}
	if err := j.sync(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// appendFramed appends v as one fsynced CRC-framed JSON line to the log at
// path: the append every journal log (job and stream meta, fleet, tenant)
// shares. A non-empty fault names the fault point fired first. The outcome
// is noted on the spool's writable flag.
func (j *Journal) appendFramed(fault, path string, v any) (err error) {
	defer func() { j.noteWrite(err) }()
	if fault != "" {
		if err := faultinject.Fire(fault); err != nil {
			return err
		}
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(frameMetaLine(payload)); err != nil {
		f.Close()
		return err
	}
	if err := j.sync(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rewriteFramed atomically replaces the log at path with one CRC-framed
// JSON line per entry (log compaction).
func rewriteFramed(path string, entries []any) error {
	var buf bytes.Buffer
	for _, e := range entries {
		payload, err := json.Marshal(e)
		if err != nil {
			return err
		}
		buf.Write(frameMetaLine(payload))
	}
	return replaceFile(path, buf.Bytes())
}

// replaceFile durably replaces path's contents with data: temp file in the
// same directory, fsync, atomic rename, directory fsync. A crash leaves
// either the old file or the new one, never a torn mix.
func replaceFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, path)
	}
	if err != nil {
		os.Remove(tmpName)
		return err
	}
	// fsync the directory so the rename itself survives a crash.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// scanFramed reads the log at path and hands each framed line's payload to
// apply, skipping blank lines. Torn or corrupt lines, and payloads apply
// rejects, are dropped and counted. A missing log is os.ErrNotExist.
func scanFramed(path string, apply func(payload []byte) bool) (dropped int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for len(data) > 0 {
		var raw []byte
		if nl := bytes.IndexByte(data, '\n'); nl < 0 {
			raw, data = data, nil
		} else {
			raw, data = data[:nl], data[nl+1:]
		}
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		if payload, ok := parseFramedPayload(raw); !ok || !apply(payload) {
			dropped++
		}
	}
	return dropped, nil
}

// sync fsyncs f, honoring the injected fsync-latency fault point.
func (j *Journal) sync(f *os.File) error {
	if err := faultinject.Fire("journal.fsync"); err != nil {
		return err
	}
	return f.Sync()
}

// removeFiles best-effort deletes a job's spool files after a failed
// Append.
func (j *Journal) removeFiles(id string) {
	_ = os.Remove(j.tracePath(id))
	_ = os.Remove(j.metaPath(id))
}

// Trace re-reads a journaled job's trace from the spool, for tools that
// want to re-analyze history.
func (j *Journal) Trace(id string) (*trace.Trace, error) {
	f, err := os.Open(j.tracePath(id))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Load(f)
}
