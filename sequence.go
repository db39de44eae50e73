// Package sequence is Sequence-RTG: an efficient, production-ready
// pattern mining library for system log messages.
//
// It is a from-scratch reproduction of the system described in
// L. Harding, F. Wernli, F. Suter, "Sequence-RTG: Efficient and
// Production-Ready Pattern Mining in System Log Messages" (HPCMASPA @
// IEEE CLUSTER 2021), which extends the seminal Sequence framework with
// the capabilities a large data centre needs to run pattern mining
// continuously:
//
//   - a JSON-lines stream ingester with batching ({service, message}),
//   - persistent patterns with statistics and reproducible SHA-1 ids,
//   - whitespace-exact pattern reconstruction (isSpaceBefore),
//   - the AnalyzeByService two-stage partitioning workflow,
//   - first-line truncation of multi-line messages, and
//   - pattern export to syslog-ng patterndb XML, YAML and Logstash Grok.
//
// # Quick start
//
//	rtg, _ := sequence.Open("") // in-memory; pass a directory to persist
//	defer rtg.Close()
//
//	records := []sequence.Record{
//	    {Service: "sshd", Message: "Failed password for root from 10.0.0.1 port 22 ssh2"},
//	    {Service: "sshd", Message: "Failed password for root from 10.9.0.7 port 4711 ssh2"},
//	    {Service: "sshd", Message: "Failed password for root from 172.16.0.3 port 2222 ssh2"},
//	}
//	rtg.AnalyzeByService(records, time.Now())
//
//	p, values, ok := rtg.Parse("sshd", "Failed password for root from 192.168.7.9 port 22022 ssh2")
//	// p.Text()          == "Failed password for root from %srcip% port %srcport% ssh2"
//	// values["srcip"]   == "192.168.7.9"
//	// values["srcport"] == "22022"
//
//	rtg.Export(os.Stdout, sequence.FormatPatternDB, sequence.ExportOptions{})
package sequence

import (
	"context"
	"errors"
	"io"
	"path/filepath"
	"time"

	"repro/internal/analyzer"
	"repro/internal/anomaly"
	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/ingest"
	"repro/internal/mask"
	"repro/internal/obs"
	"repro/internal/patterns"
	"repro/internal/store"
	"repro/internal/token"
	"repro/internal/vfs"
)

// Record is one item of the input stream: the source system and the
// unaltered log message.
type Record = ingest.Record

// Pattern is a discovered message template with its persistent metadata
// (SHA-1 id, match count, last-matched date, complexity, examples).
type Pattern = patterns.Pattern

// Element is one pattern position: fixed text or a typed variable.
type Element = patterns.Element

// Token is one scanned piece of a message. Its value is a byte-slice
// view (Token.Span) into the scanned buffer; Scan returns self-contained
// tokens backed by a private copy, so they stay valid indefinitely.
type Token = token.Token

// BatchResult summarises one processed batch.
type BatchResult = core.BatchResult

// Archive is the pattern-aware compressed log store: matched messages
// recorded as (timestamp, pattern ID, variable values) in time-bucketed,
// columnar, compressed block files. Enable it with WithArchive and
// reach it through RTG.Archive.
type Archive = archive.Archive

// ArchiveQuery selects archived records by service, pattern, half-open
// time range and positional variable predicates.
type ArchiveQuery = archive.Query

// ArchiveEntry is one archived record returned by Archive.Query.
type ArchiveEntry = archive.Entry

// ArchiveBlockInfo describes one archive block file (Archive.Blocks).
type ArchiveBlockInfo = archive.BlockInfo

// Masker is the PII masking stage: it rewrites sensitive spans (emails,
// IPs, secrets, card numbers, user-defined patterns) out of messages
// before the analyzer, parser cache, journal, and archive see the text.
// Enable it with WithMasking and reach the instance's masker through
// RTG.Masker (for example to share it with a server frontend).
type Masker = mask.Masker

// MaskConfig configures the masking stage (WithMasking). The zero value
// enables every built-in detector with no user rules.
type MaskConfig = mask.Config

// MaskRule is one user masking rule: spans matching a regular
// expression get an action applied.
type MaskRule = mask.Rule

// MaskAction is what happens to a masked span.
type MaskAction = mask.Action

// The masking actions.
const (
	// MaskRedact replaces the span with the stable literal "%masked%".
	MaskRedact = mask.Redact
	// MaskHash replaces the span with a salted, truncated SHA-256 digest
	// (stable per value, so masked values still correlate).
	MaskHash = mask.Hash
	// MaskKeepLast stars all but the last N bytes of the span.
	MaskKeepLast = mask.KeepLast
)

// ParseMaskRules reads a masking rules file strictly: the first
// malformed line is an error. See the internal/mask documentation and
// DESIGN.md §13 for the line format.
func ParseMaskRules(r io.Reader) ([]MaskRule, error) { return mask.ParseRules(r) }

// ParseMaskRulesLenient reads a masking rules file skipping malformed
// lines, returning them as errors alongside the rules that parsed; the
// count of rejected lines belongs in MaskConfig.RuleErrors so it is
// visible as seqrtg_mask_errors_total.
func ParseMaskRulesLenient(r io.Reader) ([]MaskRule, []error) { return mask.ParseRulesLenient(r) }

// Metrics is the observability surface of one (or several) RTG
// instances: atomic counters, gauges and latency histograms covering
// ingest, engine, parser and store. It is an expvar.Var (String returns
// a JSON snapshot) and writes Prometheus text exposition via
// RTG.WriteMetrics.
type Metrics = obs.Metrics

// MetricsSnapshot is a point-in-time copy of every metric.
type MetricsSnapshot = obs.Snapshot

// NewMetrics returns a fresh metrics registry, for sharing across
// instances with WithMetrics.
func NewMetrics() *Metrics { return obs.New() }

// ErrClosed is returned by mutating methods after Close. Test with
// errors.Is.
var ErrClosed = store.ErrClosed

// ErrBadRecord is the sentinel matched (via errors.Is) by errors about
// undecodable input lines. The concrete *BadRecordError carries the line
// number and the raw line.
var ErrBadRecord = ingest.ErrBadRecord

// BadRecordError describes one undecodable input line (line number, raw
// text, underlying decode error).
type BadRecordError = ingest.BadRecordError

// ExportOptions filters which patterns are exported.
type ExportOptions = export.Options

// Format selects an export format.
type Format = export.Format

// The supported export formats.
const (
	FormatPatternDB = export.FormatPatternDB
	FormatYAML      = export.FormatYAML
	FormatGrok      = export.FormatGrok
)

// DefaultBatchSize is the production batch size used at CC-IN2P3.
const DefaultBatchSize = ingest.DefaultBatchSize

// Config tunes an RTG instance. The zero value is production-ready.
//
// Deprecated: new code should use the functional options (WithConcurrency,
// WithSaveThreshold, ...) directly; code holding a Config migrates with
// Open(dir, WithConfig(cfg)). The struct remains as the option target and
// will not grow new fields beyond the options that set them.
type Config struct {
	// MinGroupMessages is the minimum number of messages required before
	// a variable is created (default 3; the paper notes patterns cannot
	// be mined from one or two examples).
	MinGroupMessages int
	// SaveThreshold drops patterns matched fewer than this many times in
	// the batch that discovered them (0 keeps everything).
	SaveThreshold int64
	// MaxTrieNodes bounds analysis memory per service; past it the trie
	// is harvested early (0 = unbounded).
	MaxTrieNodes int
	// Concurrency analyses that many services in parallel (default 1,
	// the paper's sequential behaviour).
	Concurrency int
	// StoreShards is the number of service-hash shards the store and
	// parser split their state into (0 selects GOMAXPROCS). Concurrent
	// service workers only contend when their services hash to the same
	// shard.
	StoreShards int
	// KeepAllVariables disables constant folding, reverting to the
	// original Sequence behaviour of keeping every typed position a
	// variable (limitation 4 in the paper).
	KeepAllVariables bool

	// The remaining options enable the paper's §VI future-work
	// extensions; all default off, which reproduces the published system.

	// UnpaddedTimes lets the datetime FSM accept single-digit time parts
	// (the HealthApp fix).
	UnpaddedTimes bool
	// PathFSM enables the fourth finite state machine: filesystem paths
	// become typed variables instead of literals.
	PathFSM bool
	// SplitSemiConstants, when positive, expands variables that only ever
	// took between two and this many values into one pattern per value.
	SplitSemiConstants int

	// Metrics receives the instance's instrumentation; a fresh private
	// registry is created when nil. Set it (or use WithMetrics) to share
	// one registry across instances.
	Metrics *Metrics

	// Archive enables the pattern-aware compressed log archive (see
	// WithArchive). Off by default.
	Archive bool

	// ArchiveRetention, when positive, ages out archive block files
	// whose time bucket ended more than this long ago, on every archive
	// flush (see WithArchiveRetention). Zero keeps blocks forever.
	ArchiveRetention time.Duration

	// Masking, when non-nil, enables the PII masking stage with this
	// configuration (see WithMasking).
	Masking *MaskConfig
}

// RTG is a Sequence-RTG instance: a pattern store plus the scanning,
// parsing and mining machinery around it.
type RTG struct {
	store   *store.Store
	engine  *core.Engine
	metrics *Metrics
	archive *archive.Archive // nil unless WithArchive
	masker  *mask.Masker     // nil unless WithMasking
}

// Open creates (or reopens) a Sequence-RTG instance. dir is the pattern
// database directory; an empty dir keeps everything in memory. Previously
// stored patterns are loaded and immediately used for parsing, which is
// what makes analysis continuous across executions.
//
// Behaviour is tuned with functional options:
//
//	rtg, err := sequence.Open(dir,
//	    sequence.WithConcurrency(8),
//	    sequence.WithSaveThreshold(2))
//
// Code that predates the option API migrates mechanically with
// WithConfig.
func Open(dir string, opts ...Option) (*RTG, error) {
	var c Config
	for _, opt := range opts {
		opt(&c)
	}
	if c.Metrics == nil {
		c.Metrics = obs.New()
	}
	st, err := store.OpenOptions(dir, store.Options{Shards: c.StoreShards})
	if err != nil {
		return nil, err
	}
	var arc *archive.Archive
	if c.Archive {
		// The archive lives beside the pattern database; an in-memory
		// instance gets an in-memory (fault-FS-backed) archive, so the
		// code paths are identical either way.
		afs, adir := vfs.FS(vfs.OS{}), filepath.Join(dir, "archive")
		if dir == "" {
			afs, adir = vfs.NewFault(), "archive"
		}
		arc, err = archive.Open(adir, archive.Options{FS: afs, Shards: c.StoreShards, Metrics: c.Metrics, Retention: c.ArchiveRetention})
		if err != nil {
			st.Close()
			return nil, err
		}
	}
	var msk *mask.Masker
	if c.Masking != nil {
		mc := *c.Masking
		if mc.Metrics == nil {
			mc.Metrics = c.Metrics
		}
		if mc.Scanner == (token.Config{}) {
			// Default the masker's tokenizer to the engine's, so detector
			// spans line up with what mining sees.
			mc.Scanner = token.Config{UnpaddedTimes: c.UnpaddedTimes, PathFSM: c.PathFSM}
		}
		msk = mask.New(mc)
	}
	ac := analyzer.DefaultConfig()
	if c.MinGroupMessages > 0 {
		ac.MinGroupMessages = c.MinGroupMessages
	}
	ac.FoldConstants = !c.KeepAllVariables
	ac.SplitSemiConstants = c.SplitSemiConstants
	engine := core.NewEngine(st, core.Config{
		Analyzer:      ac,
		SaveThreshold: c.SaveThreshold,
		MaxTrieNodes:  c.MaxTrieNodes,
		Concurrency:   c.Concurrency,
		Shards:        c.StoreShards,
		Scanner:       token.Config{UnpaddedTimes: c.UnpaddedTimes, PathFSM: c.PathFSM},
		Metrics:       c.Metrics,
		Archive:       arc,
		Mask:          msk,
	})
	return &RTG{store: st, engine: engine, metrics: c.Metrics, archive: arc, masker: msk}, nil
}

// Close flushes and closes the pattern database (and the archive, when
// enabled — sealing its open blocks).
func (r *RTG) Close() error {
	var err error
	if r.archive != nil {
		err = r.archive.Close()
	}
	return errors.Join(err, r.store.Close())
}

// Archive returns the instance's compressed log archive, or nil when
// archiving is disabled (the default).
func (r *RTG) Archive() *Archive { return r.archive }

// Masker returns the instance's PII masking stage, or nil when masking
// is disabled (the default). Frontends that buffer messages before
// handing them to the engine (the bundled server, say) should run the
// same masker at enqueue time so raw values never sit in queues;
// masking is idempotent, so the engine re-running it is harmless.
func (r *RTG) Masker() *Masker { return r.masker }

// AnalyzeByService processes one batch with the Sequence-RTG workflow:
// partition by service, match known patterns first, mine the unmatched
// remainder partitioned by token count, and persist discoveries.
func (r *RTG) AnalyzeByService(records []Record, now time.Time) (BatchResult, error) {
	return r.engine.AnalyzeByService(records, now)
}

// AnalyzeByServiceContext is AnalyzeByService with cancellation: once
// ctx is done no further service partitions start, in-flight partitions
// finish, and the error is ctx.Err(). The returned BatchResult covers
// the partitions that completed.
func (r *RTG) AnalyzeByServiceContext(ctx context.Context, records []Record, now time.Time) (BatchResult, error) {
	return r.engine.AnalyzeByServiceContext(ctx, records, now)
}

// Analyze processes one batch the way the original Sequence does: one
// mixed analysis with no service partitioning and no parse-first pass.
// It exists for comparison (the paper's Fig 5) and ad-hoc single-source
// use.
func (r *RTG) Analyze(records []Record, now time.Time) (BatchResult, error) {
	return r.engine.Analyze(records, now)
}

// Parse matches one message against the known patterns of its service,
// returning the pattern and the extracted variable values.
func (r *RTG) Parse(service, message string) (*Pattern, map[string]string, bool) {
	return r.engine.Parse(service, message)
}

// StreamOptions configures Run.
type StreamOptions struct {
	// BatchSize is the analysis batch (DefaultBatchSize when zero).
	BatchSize int
	// PlainText treats input lines as bare messages for DefaultService.
	PlainText bool
	// DefaultService is used for plain-text input and records without a
	// service field.
	DefaultService string
	// Report, when non-nil, is called after every processed batch.
	Report func(BatchResult)
	// Strict makes Run fail on the first undecodable input line with a
	// *BadRecordError instead of counting and skipping it.
	Strict bool
	// SelfReport, when non-nil, is called with a metrics snapshot every
	// SelfReportEvery batches — the periodic self-observation of a
	// continuously running miner.
	SelfReport func(MetricsSnapshot)
	// SelfReportEvery is the self-report period in batches (default 10
	// when SelfReport is set).
	SelfReportEvery int
}

// Run consumes a JSON-lines stream ({"service":..., "message":...}) in
// batches until EOF — the deployment mode of the paper, where syslog-ng
// pipes unmatched messages into Sequence-RTG's standard input.
func (r *RTG) Run(in io.Reader, opts StreamOptions) (BatchResult, error) {
	return r.RunContext(context.Background(), in, opts)
}

// RunContext is Run with cancellation: the loop checks ctx between
// batches (and between service partitions inside a batch) and returns
// ctx.Err() once cancelled — within one batch of the cancellation, with
// no goroutines left behind. The returned BatchResult totals the work
// done before the stop.
func (r *RTG) RunContext(ctx context.Context, in io.Reader, opts StreamOptions) (BatchResult, error) {
	reader := ingest.NewReader(in, ingest.Options{
		BatchSize:      opts.BatchSize,
		PlainText:      opts.PlainText,
		DefaultService: opts.DefaultService,
		Strict:         opts.Strict,
		Metrics:        r.metrics,
	})
	report := opts.Report
	if opts.SelfReport != nil {
		every := opts.SelfReportEvery
		if every <= 0 {
			every = 10
		}
		inner := report
		batches := 0
		report = func(res BatchResult) {
			if inner != nil {
				inner(res)
			}
			batches++
			if batches%every == 0 {
				opts.SelfReport(r.Snapshot())
			}
		}
	}
	return r.engine.RunContext(ctx, reader, report)
}

// Metrics returns the instance's metrics registry. It satisfies
// expvar.Var, so expvar.Publish("seqrtg", rtg.Metrics()) exposes the
// JSON dump on /debug/vars.
func (r *RTG) Metrics() *Metrics { return r.metrics }

// Snapshot returns a point-in-time copy of every metric: ingest volume,
// parse-hit ratio inputs, per-stage latencies, trie peak, store churn.
func (r *RTG) Snapshot() MetricsSnapshot { return r.metrics.Snapshot() }

// WriteMetrics writes every metric in the Prometheus text exposition
// format, ready to serve from a /metrics endpoint.
func (r *RTG) WriteMetrics(w io.Writer) error { return r.metrics.WritePrometheus(w) }

// Patterns returns a snapshot of every stored pattern, sorted by service
// and pattern text.
func (r *RTG) Patterns() []*Pattern { return r.store.All() }

// PatternCount returns the number of stored patterns.
func (r *RTG) PatternCount() int { return r.store.Count() }

// Services returns the distinct service names with patterns.
func (r *RTG) Services() []string { return r.store.Services() }

// Export writes the stored patterns in the requested format (patterndb
// XML with test cases, YAML, or Logstash Grok), applying the option
// filters — the ExportPatterns function of the paper.
func (r *RTG) Export(w io.Writer, f Format, opts ExportOptions) error {
	return export.Export(w, f, r.store.All(), opts)
}

// Purge removes patterns matched fewer than minCount times and last
// matched before olderThan — the save-threshold hygiene of §IV. The
// purge covers the store and the live parser together, so a purged
// pattern stops matching immediately and can be re-discovered by the
// next analysis.
func (r *RTG) Purge(minCount int64, olderThan time.Time) (int, error) {
	return r.engine.Purge(minCount, olderThan)
}

// Flush forces buffered journal writes of the pattern database to disk
// — the durability barrier a long-running server takes after each
// analysed batch. With the archive enabled it also seals the archive's
// open blocks, so every record archived before the Flush is queryable
// after a crash.
func (r *RTG) Flush() error {
	err := r.store.Flush()
	if r.archive != nil {
		err = errors.Join(err, r.archive.Flush())
	}
	return err
}

// Compact writes a fresh snapshot of a file-backed pattern database and
// truncates its journal.
func (r *RTG) Compact() error { return r.store.Compact() }

// MergeFrom folds another instance's pattern database into this one,
// summing statistics for shared patterns. Because patterns never cross
// services, sharding services over several Sequence-RTG instances and
// merging their databases is lossless — the horizontal-scaling story of
// §IV.
func (r *RTG) MergeFrom(other *RTG) error {
	if err := r.store.MergeFrom(other.store); err != nil {
		return err
	}
	// Refresh the parser with the merged set in one atomic swap, so a
	// concurrent Parse never observes a half-merged pattern set.
	r.engine.ReplacePatterns(r.store.All())
	return nil
}

// Scan tokenizes a message with the Sequence scanner (hexadecimal,
// datetime and general FSMs) and runs the analysis-time enrichment
// (key=value, e-mail, host detection). The returned tokens are
// self-contained (their spans are backed by a private copy of message,
// not a reused scanner buffer). Mostly useful for inspection and
// tooling; Analyze and Parse scan internally on the zero-allocation
// pooled path.
func Scan(message string) []Token {
	var s token.Scanner
	return token.Enrich(s.ScanCopy(message))
}

// Reconstruct joins scanned tokens back into message text using each
// token's SpaceBefore property.
func Reconstruct(tokens []Token) string { return token.Reconstruct(tokens) }

// PatternFromText parses a pattern from Sequence's %-delimited text form,
// for hand-authored patterns and tests.
func PatternFromText(text, service string) (*Pattern, error) {
	return patterns.FromText(text, service)
}

// Anomaly detection (the paper's §VI direction: separate real anomalies
// from routine extra load in the matched-message stream).

// AnomalyConfig tunes an AnomalyDetector.
type AnomalyConfig = anomaly.Config

// AnomalyAlert is one detected deviation.
type AnomalyAlert = anomaly.Alert

// AnomalyDetector tracks per-pattern message rates against EWMA
// baselines. Feed it the pattern IDs Parse returns and Flush
// periodically.
type AnomalyDetector = anomaly.Detector

// NewAnomalyDetector returns a detector; the zero AnomalyConfig selects
// one-minute buckets, alpha 0.3, a 3-sigma threshold and a five-bucket
// warm-up.
func NewAnomalyDetector(cfg AnomalyConfig) *AnomalyDetector {
	return anomaly.New(cfg)
}
