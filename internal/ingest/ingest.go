// Package ingest implements the Sequence-RTG data stream ingester.
//
// Production log management systems collate messages from many source
// systems into one near-real-time stream. Sequence-RTG reads that stream
// from standard input (it runs as a child process of syslog-ng, §IV) as
// JSON lines with exactly two fields — the service the message originated
// from and the unaltered message text — and buffers them until a
// configurable batch size is reached, at which point the batch is handed
// to analysis. The batch size balances having enough data for the
// comparison steps against trie memory (§III); the paper settles on
// 100,000 messages for CC-IN2P3.
package ingest

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
)

// Record is one item of the input stream.
type Record struct {
	// Service is the source system the message originated from.
	Service string `json:"service"`
	// Message is the unaltered log message. It may contain line breaks:
	// multi-line messages arrive as a single JSON string and are handled
	// (truncated at the first break with a tail-ignore marker) downstream
	// by the scanner.
	Message string `json:"message"`
}

// DefaultBatchSize is the production batch size used at CC-IN2P3 (§IV).
const DefaultBatchSize = 100000

// Options configures a Reader.
type Options struct {
	// BatchSize is the number of records per batch (DefaultBatchSize when
	// zero or negative).
	BatchSize int
	// PlainText treats every input line as a bare message for
	// DefaultService instead of decoding JSON. This is the ad-hoc,
	// file-of-messages mode the paper describes as an alternative to the
	// streaming deployment.
	PlainText bool
	// DefaultService is the service for plain-text records and for JSON
	// records missing a service field.
	DefaultService string
	// MaxLineBytes bounds one input line (1 MiB when zero). An oversized
	// line is discarded and counted like a malformed record; it does not
	// end the stream.
	MaxLineBytes int
	// Strict makes NextBatch fail with a *BadRecordError on the first
	// undecodable (or oversized) line instead of counting and skipping
	// it. The default (false) is the production behaviour: an ingester
	// must not die on one bad message.
	Strict bool
	// Metrics receives ingest instrumentation (lines read, decode
	// errors and fallbacks, batches, batch fill time). A fresh private
	// instance is used when nil.
	Metrics *obs.Metrics
}

// BatchSource yields batches of records for the engine's run loop. The
// stdin Reader and the server's bounded Queue both implement it.
type BatchSource interface {
	// NextBatch returns the next batch of records; the final batch may
	// be short, and io.EOF follows once the source is exhausted.
	NextBatch() ([]Record, error)
}

// Reader pulls batches of records from a stream.
type Reader struct {
	opts      Options
	lr        *lineReader
	err       error
	lines     int64
	records   int64
	malformed int64
	oversize  int64
	lastBad   *BadRecordError
	services  ServiceTable
	m         *obs.Metrics
}

// NewReader wraps an input stream.
func NewReader(r io.Reader, opts Options) *Reader {
	if opts.BatchSize <= 0 {
		opts.BatchSize = DefaultBatchSize
	}
	if opts.DefaultService == "" {
		opts.DefaultService = "unknown"
	}
	if opts.MaxLineBytes <= 0 {
		opts.MaxLineBytes = 1 << 20
	}
	m := opts.Metrics
	if m == nil {
		m = obs.New()
	}
	return &Reader{opts: opts, lr: newLineReader(r, opts.MaxLineBytes), services: ServiceTable{}, m: m}
}

// NextBatch returns the next batch of records. The final batch may be
// shorter than the batch size; after the stream is exhausted NextBatch
// returns io.EOF. Malformed JSON lines are counted and skipped — a
// production ingester must not die on one bad message — and so are
// lines exceeding MaxLineBytes (the discarded prefix is kept in
// LastBadRecord for inspection). Options.Strict instead fails the batch
// on the first bad or oversized line with a *BadRecordError (matchable
// with errors.Is(err, ErrBadRecord)).
func (r *Reader) NextBatch() ([]Record, error) {
	if r.err != nil {
		return nil, r.err
	}
	start := time.Now()
	batch := make([]Record, 0, r.opts.BatchSize)
	for len(batch) < r.opts.BatchSize {
		line, tooLong, err := r.lr.next()
		if tooLong {
			// One huge line must not kill the stream: discard it, count
			// it, and continue at the next line (unless strict).
			r.lines++
			r.m.IngestLines.Inc()
			r.oversize++
			r.m.IngestOversize.Inc()
			r.lastBad = badRecord(r.lines, line, bufio.ErrTooLong)
			if r.opts.Strict {
				r.err = r.lastBad
				return nil, r.err
			}
		}
		if err != nil {
			if err == io.EOF {
				r.err = io.EOF
			} else {
				r.err = fmt.Errorf("ingest: read stream: %w", err)
			}
			break
		}
		if tooLong {
			continue
		}
		r.lines++
		r.m.IngestLines.Inc()
		if len(line) == 0 {
			continue
		}
		rec, badErr := r.decode(line)
		if badErr != nil {
			r.malformed++
			r.lastBad = badErr
			r.m.IngestDecodeErrors.Inc()
			if r.opts.Strict {
				r.err = badErr
				return nil, r.err
			}
			continue
		}
		r.records++
		r.m.IngestRecords.Inc()
		batch = append(batch, rec)
	}
	if len(batch) == 0 {
		if r.err == nil {
			r.err = io.EOF
		}
		return nil, r.err
	}
	r.m.IngestBatches.Inc()
	r.m.IngestBatchFill.ObserveSince(start)
	return batch, nil
}

func (r *Reader) decode(line []byte) (Record, *BadRecordError) {
	if r.opts.PlainText {
		return Record{Service: r.opts.DefaultService, Message: string(line)}, nil
	}
	rec, fast, bad := decodeLine(r.lines, line, r.opts.DefaultService, r.services)
	if !fast {
		r.m.IngestDecodeFallback.Inc()
	}
	return rec, bad
}

// Records returns how many well-formed records have been read so far.
func (r *Reader) Records() int64 { return r.records }

// Malformed returns how many lines were skipped as undecodable.
func (r *Reader) Malformed() int64 { return r.malformed }

// Oversize returns how many lines were discarded for exceeding
// MaxLineBytes.
func (r *Reader) Oversize() int64 { return r.oversize }

// Lines returns how many input lines have been read so far, including
// empty and malformed ones.
func (r *Reader) Lines() int64 { return r.lines }

// LastBadRecord returns the most recent undecodable line as a
// *BadRecordError, or nil if every line so far decoded. In the default
// lenient mode this is how callers inspect what was skipped.
func (r *Reader) LastBadRecord() *BadRecordError { return r.lastBad }

// Err returns the terminal stream error, if any (io.EOF after a clean
// end).
func (r *Reader) Err() error {
	if errors.Is(r.err, io.EOF) {
		return nil
	}
	return r.err
}

// Marshal encodes a record as one JSON line (with trailing newline),
// the exact wire format the ingester consumes. Used by the workload
// generators and examples.
func Marshal(rec Record) []byte {
	b, err := json.Marshal(rec)
	if err != nil {
		// Record has only string fields; Marshal cannot fail.
		panic(fmt.Sprintf("ingest: marshal record: %v", err))
	}
	return append(b, '\n')
}
