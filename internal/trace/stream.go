// Pipelined streaming decode: JSON parsing and analysis overlap instead of
// materializing the whole []Event before the first tool callback fires.
package trace

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"

	"repro/internal/ompt"
)

// streamBatchSize is how many decoded events accumulate before the batch is
// emitted downstream.
const streamBatchSize = 256

// streamChanCap bounds how many decoded batches may sit between the decode
// producer and the replay consumer, capping memory at
// streamChanCap*streamBatchSize events plus one batch in flight on each
// side.
const streamChanCap = 4

// streamEpochChunk is how many accesses of one epoch accumulate before the
// partial epoch is fanned out to the analysis pool (large epochs overlap
// decode and analysis instead of waiting for the next barrier).
const streamEpochChunk = 4096

// Stream incrementally decodes a trace, calling emit with each batch of
// fully validated events. Events passed to emit are never touched again by
// the decoder, so emit may retain the slice. Both trace encodings are
// accepted: the decoder sniffs the first bytes and dispatches to the
// CRC32C-framed decoder (SaveFramed's output, failures reported as
// *CorruptionError with a byte offset) or the JSON-lines decoder (Save's
// output, failures reported with the offending line number). Inputs
// exceeding lim fail with ErrTooManyEvents or ErrTooManyBytes.
func Stream(r io.Reader, lim Limits, emit func(batch []Event) error) error {
	br := bufio.NewReaderSize(r, 64<<10)
	// A JSON line opens with '{' (or whitespace), so the magic is an
	// unambiguous discriminator. Peek errors (including an input shorter
	// than the magic) fall through to the JSON-lines path, which handles
	// empty and truncated input with its historical errors.
	if head, err := br.Peek(len(traceMagic)); err == nil && bytes.Equal(head, traceMagic) {
		return decodeFramed(br, lim, emit)
	}
	return streamJSONLines(br, lim, emit)
}

// streamJSONLines is the JSON-lines decode loop behind Stream. Blank lines
// are skipped.
func streamJSONLines(br *bufio.Reader, lim Limits, emit func(batch []Event) error) error {
	var read int64
	count := 0
	in := newInterner()
	batch := make([]Event, 0, streamBatchSize)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		out := batch
		batch = make([]Event, 0, streamBatchSize)
		return emit(out)
	}
	var long []byte // a line longer than br's buffer, reassembled
	for line := 1; ; line++ {
		// The line is decoded in place: decodeEvent copies out every string
		// it keeps, so br may reuse its buffer on the next read.
		raw, err := br.ReadSlice('\n')
		read += int64(len(raw))
		if err == bufio.ErrBufferFull {
			long = append(long[:0], raw...)
			for err == bufio.ErrBufferFull && (lim.MaxBytes <= 0 || read <= lim.MaxBytes) {
				raw, err = br.ReadSlice('\n')
				read += int64(len(raw))
				long = append(long, raw...)
			}
			raw = long
		}
		if lim.MaxBytes > 0 && read > lim.MaxBytes {
			return fmt.Errorf("%w: more than %d bytes", ErrTooManyBytes, lim.MaxBytes)
		}
		if trimmed := bytes.TrimSpace(raw); len(trimmed) > 0 {
			if lim.MaxEvents > 0 && count >= lim.MaxEvents {
				return fmt.Errorf("%w: more than %d events (line %d)", ErrTooManyEvents, lim.MaxEvents, line)
			}
			batch = append(batch, Event{})
			if derr := decodeEvent(trimmed, &batch[len(batch)-1], in); derr != nil {
				return fmt.Errorf("trace: line %d: %w", line, derr)
			}
			count++
			if len(batch) == streamBatchSize {
				if ferr := flush(); ferr != nil {
					return ferr
				}
			}
		}
		if err == io.EOF {
			return flush()
		}
		if err != nil {
			return fmt.Errorf("trace: line %d: %w", line, err)
		}
	}
}

// ReplayStream decodes the trace from r — either encoding, sniffed as in
// Stream — in a producer goroutine and replays it into the given tools as
// batches arrive, so parse and analysis overlap. workers selects the
// analysis fan-out exactly as in ReplayParallel (1 = sequential dispatch,
// 0 = GOMAXPROCS); events are validated once at decode time.
func ReplayStream(ctx context.Context, r io.Reader, lim Limits, workers int, toolList ...ompt.Tool) (ReplayStats, error) {
	workers = EffectiveWorkers(workers, toolList...)
	var d ompt.Dispatcher
	for _, tool := range toolList {
		d.Register(tool)
	}

	type result struct{ err error }
	batches := make(chan []Event, streamChanCap)
	done := make(chan struct{})
	decodeErr := make(chan result, 1)
	go func() {
		err := Stream(r, lim, func(batch []Event) error {
			select {
			case batches <- batch:
				return nil
			case <-done:
				// Consumer bailed (cancellation, dispatch error, panic);
				// stop decoding without blocking forever.
				return context.Canceled
			}
		})
		close(batches)
		decodeErr <- result{err: err}
	}()
	defer close(done)

	var stats ReplayStats
	var consumeErr error
	if workers == 1 {
		// All dispatch happens on this goroutine (decode runs concurrently
		// but only produces), so sequential-mode accelerators are safe.
		d.SetDispatchMode(ompt.DispatchSequential)
		stats.Workers = 1
		var epoch uint64
		ab := newAccessBatcher(&d, nil)
		defer ab.release()
		n := 0
	seq:
		for batch := range batches {
			for i := range batch {
				if n%replayCheckInterval == 0 {
					ab.flush()
					if err := ctx.Err(); err != nil {
						consumeErr = fmt.Errorf("trace: replay canceled at event %d: %w", n, err)
						break seq
					}
				}
				n++
				e := &batch[i]
				if e.Kind == KindAccess {
					if e.Access == nil {
						consumeErr = payloadErr(e)
						break seq
					}
					stats.Accesses++
					epoch++
					stats.Events++
					ab.add(e)
					continue
				}
				if epoch > 0 {
					stats.Epochs++
					if epoch > stats.MaxEpochAccesses {
						stats.MaxEpochAccesses = epoch
					}
					epoch = 0
				}
				ab.flush()
				if err := dispatchEvent(&d, e); err != nil {
					consumeErr = err
					break seq
				}
				stats.Events++
			}
		}
		ab.flush()
		if epoch > 0 {
			stats.Epochs++
			if epoch > stats.MaxEpochAccesses {
				stats.MaxEpochAccesses = epoch
			}
		}
	} else {
		d.SetDispatchMode(ompt.DispatchEpochSharded)
		eng := newReplayEngine(ctx, &d, workers, nil)
		// Access runs are copied out of the decoder's batches into an epoch
		// chunk buffer, since one epoch usually spans many decode batches.
		// Full chunks fan out to the pool immediately — analysis overlaps
		// decode even inside a large epoch — and the remainder is flushed at
		// the next barrier event.
		epochBuf := make([]Event, 0, streamEpochChunk)
		n := 0
	par:
		for batch := range batches {
			for i := range batch {
				if n%replayCheckInterval == 0 {
					if err := ctx.Err(); err != nil {
						consumeErr = fmt.Errorf("trace: replay canceled at event %d: %w", n, err)
						break par
					}
				}
				n++
				e := &batch[i]
				if e.Kind == KindAccess {
					epochBuf = append(epochBuf, *e)
					if len(epochBuf) >= streamEpochChunk {
						eng.dispatchRun(epochBuf, true)
						// The pool owns that buffer now; start a fresh one.
						epochBuf = make([]Event, 0, streamEpochChunk)
					}
					continue
				}
				eng.dispatchRun(epochBuf, false)
				eng.barrier()
				epochBuf = epochBuf[:0] // pool drained; the chunk buffer is free again
				eng.observe(e)
				if err := dispatchEvent(eng.d, e); err != nil {
					consumeErr = err
					break par
				}
				eng.stats.Events++
			}
		}
		func() {
			defer eng.stop()
			if consumeErr == nil {
				eng.dispatchRun(epochBuf, false)
			}
			eng.barrier() // may re-raise a worker panic; stop still runs
		}()
		stats = eng.stats
	}

	if consumeErr != nil {
		// The deferred close(done) unblocks the producer; its error is moot.
		return stats, consumeErr
	}
	res := <-decodeErr
	return stats, res.err
}
