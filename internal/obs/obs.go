// Package obs is the Sequence-RTG observability layer: dependency-free
// counters, gauges and latency histograms with lock-free hot paths.
//
// The paper's whole pitch is production-readiness — Sequence-RTG runs
// continuously behind syslog-ng at CC-IN2P3 — and a continuously running
// miner must be watchable: batch latency, parse-hit ratio, trie growth
// and store churn all need to be visible while Run consumes a stream.
// A Metrics instance is threaded through every pipeline stage (ingest,
// engine, parser, store) and exposed three ways by the public API:
//
//   - Snapshot, a plain struct of current values for programmatic use,
//   - String, an expvar-compatible JSON dump, and
//   - WritePrometheus, the Prometheus text exposition format.
//
// Everything on the hot path is a single atomic add; histograms use a
// fixed bucket layout so Observe is one binary search plus two atomic
// adds. No external metric library is used (the repo is stdlib-only),
// but names and exposition follow Prometheus conventions so the output
// scrapes directly.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Exported metric names, one constant per Metrics field. These are the
// single source of truth for the seqrtg_* namespace: registration
// (descs), tests and documentation all reference the constants, and the
// metricnames analyzer (internal/analysis/metricnames) rejects any raw
// seqrtg_ string literal outside this block, so an exposition name can
// never drift from the name a test or dashboard expects.
const (
	MetricIngestLines          = "seqrtg_ingest_lines_total"
	MetricIngestRecords        = "seqrtg_ingest_records_total"
	MetricIngestDecodeErrors   = "seqrtg_ingest_decode_errors_total"
	MetricIngestDecodeFallback = "seqrtg_ingest_decode_fallback_total"
	MetricIngestOversize       = "seqrtg_ingest_oversize_total"
	MetricIngestBatches        = "seqrtg_ingest_batches_total"
	MetricIngestBatchFill      = "seqrtg_ingest_batch_fill_seconds"

	MetricServerAccepted      = "seqrtg_server_accepted_total"
	MetricServerParseErrors   = "seqrtg_server_parse_errors_total"
	MetricServerShed          = "seqrtg_server_shed_total"
	MetricServerQueueDepth    = "seqrtg_server_queue_depth"
	MetricServerIngestLatency = "seqrtg_server_ingest_to_persist_seconds"

	MetricEngineBatches         = "seqrtg_engine_batches_total"
	MetricEngineMessages        = "seqrtg_engine_messages_total"
	MetricEngineParseHits       = "seqrtg_engine_parse_hits_total"
	MetricEngineUnmatched       = "seqrtg_engine_unmatched_total"
	MetricEnginePatternsMined   = "seqrtg_engine_patterns_mined_total"
	MetricEngineEarlyHarvests   = "seqrtg_engine_early_harvests_total"
	MetricEngineTrieNodesPeak   = "seqrtg_engine_trie_nodes_peak"
	MetricEngineServiceAnalysis = "seqrtg_engine_service_analysis_seconds"
	MetricEngineBatchDuration   = "seqrtg_engine_batch_seconds"

	MetricParserMatchAttempts  = "seqrtg_parser_match_attempts_total"
	MetricParserMatchMisses    = "seqrtg_parser_match_misses_total"
	MetricParserExactCacheHits = "seqrtg_parser_exact_cache_hits_total"
	MetricParserPatterns       = "seqrtg_parser_patterns"

	MetricStoreUpserts            = "seqrtg_store_upserts_total"
	MetricStoreTouches            = "seqrtg_store_touches_total"
	MetricStoreTouchUnknown       = "seqrtg_store_touch_unknown_total"
	MetricStoreDeletes            = "seqrtg_store_deletes_total"
	MetricStoreJournalAppends     = "seqrtg_store_journal_appends_total"
	MetricStoreIOErrors           = "seqrtg_store_io_errors_total"
	MetricStoreCompactions        = "seqrtg_store_compactions_total"
	MetricStorePatterns           = "seqrtg_store_patterns"
	MetricStoreShards             = "seqrtg_store_shards"
	MetricStoreShardContention    = "seqrtg_store_shard_contention_total"
	MetricStoreShardOps           = "seqrtg_store_shard_ops_total"
	MetricStoreCompactionDuration = "seqrtg_store_compaction_seconds"
	MetricStoreBatchRecords       = "seqrtg_store_batch_records_total"
	MetricStoreBatchBytes         = "seqrtg_store_batch_bytes_total"

	MetricArchiveBlocks      = "seqrtg_archive_blocks_total"
	MetricArchiveRecords     = "seqrtg_archive_records_total"
	MetricArchiveBytesRaw    = "seqrtg_archive_bytes_raw_total"
	MetricArchiveBytesStored = "seqrtg_archive_bytes_stored_total"
	MetricArchiveCacheHits   = "seqrtg_archive_cache_hits_total"
	MetricArchiveCacheMisses = "seqrtg_archive_cache_misses_total"
	MetricArchiveIOErrors    = "seqrtg_archive_io_errors_total"

	MetricArchiveRetiredBlocks = "seqrtg_archive_retired_blocks_total"
	MetricArchiveSegments      = "seqrtg_archive_segments_total"
	MetricArchiveFlushDuration = "seqrtg_archive_flush_seconds"

	MetricMaskMatches       = "seqrtg_mask_matches_total"
	MetricMaskBytesRedacted = "seqrtg_mask_bytes_redacted_total"
	MetricMaskRulesLoaded   = "seqrtg_mask_rules_loaded_total"
	MetricMaskErrors        = "seqrtg_mask_errors_total"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for Prometheus semantics; Add does
// not enforce it so tests can construct arbitrary states).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// SetMax raises the gauge to n if n is larger than the current value —
// a lock-free running maximum, used for peak trie size.
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// CounterVec is a dense vector of counters indexed 0..n-1, used for
// per-shard instrumentation (one slot per store/parser shard). The
// vector is sized with EnsureLen before concurrent use — typically at
// store construction — after which Inc is a single atomic add with no
// locking. Out-of-range increments are dropped rather than panicking,
// so a zero CounterVec is safe everywhere.
type CounterVec struct {
	slots atomic.Pointer[[]atomic.Int64]
}

// EnsureLen grows the vector to at least n slots, preserving existing
// counts. Not safe against concurrent Inc — call before concurrent use.
func (v *CounterVec) EnsureLen(n int) {
	if n <= 0 {
		return
	}
	old := v.slots.Load()
	if old != nil && len(*old) >= n {
		return
	}
	fresh := make([]atomic.Int64, n)
	if old != nil {
		for i := range *old {
			fresh[i].Store((*old)[i].Load())
		}
	}
	v.slots.Store(&fresh)
}

// Inc adds one to slot i (a no-op when i is out of range).
func (v *CounterVec) Inc(i int) { v.Add(i, 1) }

// Add adds n to slot i (a no-op when i is out of range).
func (v *CounterVec) Add(i int, n int64) {
	s := v.slots.Load()
	if s == nil || i < 0 || i >= len(*s) {
		return
	}
	(*s)[i].Add(n)
}

// Len returns the number of slots.
func (v *CounterVec) Len() int {
	s := v.slots.Load()
	if s == nil {
		return 0
	}
	return len(*s)
}

// Values returns a copy of every slot.
func (v *CounterVec) Values() []int64 {
	s := v.slots.Load()
	if s == nil {
		return nil
	}
	out := make([]int64, len(*s))
	for i := range *s {
		out[i] = (*s)[i].Load()
	}
	return out
}

// Listener indices for the server's per-listener counter vectors. The
// network ingestion daemon has a fixed set of listeners, so per-listener
// counters are dense vectors indexed by these constants and rendered
// with the matching ListenerNames label value.
const (
	ListenerUDP = iota
	ListenerTCP
	ListenerHTTP
	numListeners
)

// ListenerNames maps listener indices to their metric label values.
var ListenerNames = []string{"udp", "tcp", "http"}

// DefBuckets is the default latency bucket layout in seconds. It spans
// sub-millisecond parses to the paper's 7.5 s production batches with
// headroom for slow disks.
var DefBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60}

// Histogram is a fixed-bucket latency histogram. Observe is lock-free:
// one bucket search plus atomic adds. The zero Histogram uses DefBuckets
// on first use.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf implicit
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum in seconds
	init    atomic.Bool
}

// NewHistogram returns a histogram with the given ascending upper bounds
// in seconds (DefBuckets when none are given).
func NewHistogram(bounds ...float64) *Histogram {
	h := &Histogram{}
	h.setBounds(bounds)
	return h
}

func (h *Histogram) setBounds(bounds []float64) {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	h.bounds = append([]float64(nil), bounds...)
	h.counts = make([]atomic.Int64, len(h.bounds)+1) // last bucket is +Inf
	h.init.Store(true)
}

// lazyInit makes the zero Histogram usable, so Metrics can be a flat
// struct of values with no constructor on the caller side.
func (h *Histogram) lazyInit() {
	if !h.init.Load() {
		// Racy double-init is harmless before first Observe; Metrics
		// histograms are always initialised by New before use.
		h.setBounds(nil)
	}
}

// Observe records one measurement in seconds.
func (h *Histogram) Observe(seconds float64) {
	h.lazyInit()
	// Find the first bucket whose upper bound holds the value.
	i := sort.SearchFloat64s(h.bounds, seconds)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		sum := math.Float64frombits(old) + seconds
		if h.sumBits.CompareAndSwap(old, math.Float64bits(sum)) {
			return
		}
	}
}

// ObserveDuration records one duration.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveSince records the time elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values in seconds.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bucket is one cumulative histogram bucket of a snapshot.
type Bucket struct {
	// UpperBound is the inclusive upper bound in seconds; +Inf for the
	// last bucket.
	UpperBound float64 `json:"le"`
	// Count is the cumulative number of observations at or below
	// UpperBound (Prometheus bucket semantics).
	Count int64 `json:"count"`
}

// MarshalJSON renders the upper bound as a string so the +Inf bucket
// survives encoding/json (which rejects infinities as numbers).
func (b Bucket) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		UpperBound string `json:"le"`
		Count      int64  `json:"count"`
	}{formatLe(b.UpperBound), b.Count})
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var raw struct {
		UpperBound string `json:"le"`
		Count      int64  `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if raw.UpperBound == "+Inf" {
		b.UpperBound = math.Inf(1)
	} else if _, err := fmt.Sscanf(raw.UpperBound, "%g", &b.UpperBound); err != nil {
		return err
	}
	b.Count = raw.Count
	return nil
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// snapshot copies the histogram with cumulative bucket counts.
func (h *Histogram) snapshot() HistogramSnapshot {
	h.lazyInit()
	s := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		s.Buckets = append(s.Buckets, Bucket{UpperBound: ub, Count: cum})
	}
	return s
}

// Metrics is the full instrumentation surface of one Sequence-RTG
// instance. All fields are safe for concurrent use; the struct must be
// created with New so the histograms share one bucket layout.
type Metrics struct {
	start time.Time

	// Ingest: the JSON-lines stream reader.
	IngestLines          Counter    // input lines read, including empty and malformed
	IngestRecords        Counter    // well-formed records decoded
	IngestDecodeErrors   Counter    // malformed lines skipped (or rejected in strict mode)
	IngestDecodeFallback Counter    // JSON lines that left the fast path for encoding/json
	IngestOversize       Counter    // input lines discarded for exceeding the line-size bound
	IngestBatches        Counter    // batches handed to analysis
	IngestBatchFill      *Histogram // seconds to fill one batch from the stream

	// Server: the network ingestion daemon (syslog + HTTP listeners in
	// front of a bounded record queue).
	ServerAccepted      CounterVec // records accepted into the queue, per listener
	ServerParseErrors   CounterVec // datagrams/frames/lines rejected as unparseable, per listener
	ServerShed          CounterVec // records shed because the queue stayed full past the deadline, per listener
	ServerQueueDepth    Gauge      // records currently queued between listeners and analysis
	ServerIngestLatency *Histogram // seconds from queue admission to durable persistence

	// Engine: the AnalyzeByService workflow.
	EngineBatches         Counter    // batches analysed
	EngineMessages        Counter    // messages processed
	EngineParseHits       Counter    // messages matched by an already-known pattern
	EngineUnmatched       Counter    // messages that went to trie analysis
	EnginePatternsMined   Counter    // patterns discovered and saved (post save-threshold)
	EngineEarlyHarvests   Counter    // tries harvested early because MaxTrieNodes was hit
	EngineTrieNodesPeak   Gauge      // largest per-service trie seen
	EngineServiceAnalysis *Histogram // per-service analysis wall seconds
	EngineBatchDuration   *Histogram // whole-batch wall seconds

	// Parser: matching against known patterns.
	ParserMatchAttempts  Counter // Match calls
	ParserMatchMisses    Counter // Match calls that found no pattern
	ParserExactCacheHits Counter // MatchExact hits (verbatim-message cache)
	ParserPatterns       Gauge   // patterns currently registered

	// Store: the persistent pattern database.
	StoreUpserts            Counter    // patterns inserted or merged
	StoreTouches            Counter    // match-statistic updates
	StoreTouchUnknown       Counter    // touches of IDs absent from the store (purged mid-batch), recovered
	StoreDeletes            Counter    // patterns deleted (including purges)
	StoreJournalAppends     Counter    // records appended to the write-ahead journal
	StoreIOErrors           Counter    // failed disk operations (journal append/flush/sync, snapshot write)
	StoreCompactions        Counter    // snapshot compactions
	StorePatterns           Gauge      // patterns currently stored
	StoreShards             Gauge      // service-hash shards of the store
	StoreShardContention    CounterVec // per-shard lock acquisitions that had to wait
	StoreShardOps           CounterVec // per-shard mutations (upsert/touch/delete)
	StoreCompactionDuration *Histogram // compaction wall seconds
	StoreBatchRecords       Counter    // journal records written through ApplyBatch group commits
	StoreBatchBytes         Counter    // journal bytes written by ApplyBatch group commits

	// Archive: the pattern-aware compressed log archive.
	ArchiveBlocks      Counter // blocks sealed and published
	ArchiveRecords     Counter // matched messages appended to the archive
	ArchiveBytesRaw    Counter // raw message bytes represented by archived records
	ArchiveBytesStored Counter // bytes written to published segment files
	ArchiveCacheHits   Counter // block reads served from the LRU block cache
	ArchiveCacheMisses Counter // block reads that had to load and decode a block
	ArchiveIOErrors    Counter // failed archive disk operations (flush write/sync/rename)

	// ArchiveRetiredBlocks counts segment files (and block files of the
	// earlier format) deleted by retention.
	ArchiveRetiredBlocks Counter
	// ArchiveSegments counts segment files published: one per bucket a
	// flush touches.
	ArchiveSegments Counter
	// ArchiveFlushDuration is the wall time of each publish: encoding,
	// writing, syncing and renaming one flush's segments.
	ArchiveFlushDuration *Histogram

	// Mask: the PII masking stage of the ingest path.
	MaskMatches       Counter // spans rewritten by a detector or rule
	MaskBytesRedacted Counter // raw input bytes hidden by masking
	MaskRulesLoaded   Counter // user rules loaded from rules files
	MaskErrors        Counter // rule lines rejected by lenient rule loading
}

// New returns a ready-to-use Metrics with the default bucket layout.
func New() *Metrics {
	m := &Metrics{
		start:                   time.Now(),
		IngestBatchFill:         NewHistogram(),
		EngineServiceAnalysis:   NewHistogram(),
		EngineBatchDuration:     NewHistogram(),
		StoreCompactionDuration: NewHistogram(),
		ServerIngestLatency:     NewHistogram(),
		ArchiveFlushDuration:    NewHistogram(),
	}
	m.ServerAccepted.EnsureLen(numListeners)
	m.ServerParseErrors.EnsureLen(numListeners)
	m.ServerShed.EnsureLen(numListeners)
	return m
}

// Snapshot is a point-in-time copy of every metric, for programmatic
// consumption (self-reports, tests, dashboards).
type Snapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`

	IngestLines          int64             `json:"ingest_lines"`
	IngestRecords        int64             `json:"ingest_records"`
	IngestDecodeErrors   int64             `json:"ingest_decode_errors"`
	IngestDecodeFallback int64             `json:"ingest_decode_fallback"`
	IngestOversize       int64             `json:"ingest_oversize"`
	IngestBatches        int64             `json:"ingest_batches"`
	IngestBatchFill      HistogramSnapshot `json:"ingest_batch_fill_seconds"`

	// The server vectors are keyed by listener name (udp, tcp, http).
	ServerAccepted      map[string]int64  `json:"server_accepted,omitempty"`
	ServerParseErrors   map[string]int64  `json:"server_parse_errors,omitempty"`
	ServerShed          map[string]int64  `json:"server_shed,omitempty"`
	ServerQueueDepth    int64             `json:"server_queue_depth"`
	ServerIngestLatency HistogramSnapshot `json:"server_ingest_to_persist_seconds"`

	EngineBatches         int64             `json:"engine_batches"`
	EngineMessages        int64             `json:"engine_messages"`
	EngineParseHits       int64             `json:"engine_parse_hits"`
	EngineUnmatched       int64             `json:"engine_unmatched"`
	EnginePatternsMined   int64             `json:"engine_patterns_mined"`
	EngineEarlyHarvests   int64             `json:"engine_early_harvests"`
	EngineTrieNodesPeak   int64             `json:"engine_trie_nodes_peak"`
	EngineServiceAnalysis HistogramSnapshot `json:"engine_service_analysis_seconds"`
	EngineBatchDuration   HistogramSnapshot `json:"engine_batch_seconds"`

	ParserMatchAttempts  int64 `json:"parser_match_attempts"`
	ParserMatchMisses    int64 `json:"parser_match_misses"`
	ParserExactCacheHits int64 `json:"parser_exact_cache_hits"`
	ParserPatterns       int64 `json:"parser_patterns"`

	StoreUpserts            int64             `json:"store_upserts"`
	StoreTouches            int64             `json:"store_touches"`
	StoreTouchUnknown       int64             `json:"store_touch_unknown"`
	StoreDeletes            int64             `json:"store_deletes"`
	StoreJournalAppends     int64             `json:"store_journal_appends"`
	StoreIOErrors           int64             `json:"store_io_errors"`
	StoreCompactions        int64             `json:"store_compactions"`
	StorePatterns           int64             `json:"store_patterns"`
	StoreShards             int64             `json:"store_shards"`
	StoreShardContention    []int64           `json:"store_shard_contention,omitempty"`
	StoreShardOps           []int64           `json:"store_shard_ops,omitempty"`
	StoreCompactionDuration HistogramSnapshot `json:"store_compaction_seconds"`
	StoreBatchRecords       int64             `json:"store_batch_records"`
	StoreBatchBytes         int64             `json:"store_batch_bytes"`

	ArchiveBlocks      int64 `json:"archive_blocks"`
	ArchiveRecords     int64 `json:"archive_records"`
	ArchiveBytesRaw    int64 `json:"archive_bytes_raw"`
	ArchiveBytesStored int64 `json:"archive_bytes_stored"`
	ArchiveCacheHits   int64 `json:"archive_cache_hits"`
	ArchiveCacheMisses int64 `json:"archive_cache_misses"`
	ArchiveIOErrors    int64 `json:"archive_io_errors"`

	ArchiveRetiredBlocks int64             `json:"archive_retired_blocks"`
	ArchiveSegments      int64             `json:"archive_segments"`
	ArchiveFlushDuration HistogramSnapshot `json:"archive_flush_seconds"`

	MaskMatches       int64 `json:"mask_matches"`
	MaskBytesRedacted int64 `json:"mask_bytes_redacted"`
	MaskRulesLoaded   int64 `json:"mask_rules_loaded"`
	MaskErrors        int64 `json:"mask_errors"`
}

// listenerMap renders a per-listener counter vector as a name-keyed map
// (nil when the vector was never sized, i.e. the zero Metrics).
func listenerMap(v *CounterVec) map[string]int64 {
	vals := v.Values()
	if vals == nil {
		return nil
	}
	out := make(map[string]int64, len(vals))
	for i, val := range vals {
		if i < len(ListenerNames) {
			out[ListenerNames[i]] = val
		}
	}
	return out
}

// ParseHitRatio returns the fraction of engine messages matched by a
// known pattern (0 when no messages were processed).
func (s Snapshot) ParseHitRatio() float64 {
	if s.EngineMessages == 0 {
		return 0
	}
	return float64(s.EngineParseHits) / float64(s.EngineMessages)
}

// Snapshot copies every metric atomically enough for monitoring: each
// value is read atomically, the set is not a single consistent cut.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),

		IngestLines:          m.IngestLines.Value(),
		IngestRecords:        m.IngestRecords.Value(),
		IngestDecodeErrors:   m.IngestDecodeErrors.Value(),
		IngestDecodeFallback: m.IngestDecodeFallback.Value(),
		IngestOversize:       m.IngestOversize.Value(),
		IngestBatches:        m.IngestBatches.Value(),
		IngestBatchFill:      m.IngestBatchFill.snapshot(),

		ServerAccepted:      listenerMap(&m.ServerAccepted),
		ServerParseErrors:   listenerMap(&m.ServerParseErrors),
		ServerShed:          listenerMap(&m.ServerShed),
		ServerQueueDepth:    m.ServerQueueDepth.Value(),
		ServerIngestLatency: m.ServerIngestLatency.snapshot(),

		EngineBatches:         m.EngineBatches.Value(),
		EngineMessages:        m.EngineMessages.Value(),
		EngineParseHits:       m.EngineParseHits.Value(),
		EngineUnmatched:       m.EngineUnmatched.Value(),
		EnginePatternsMined:   m.EnginePatternsMined.Value(),
		EngineEarlyHarvests:   m.EngineEarlyHarvests.Value(),
		EngineTrieNodesPeak:   m.EngineTrieNodesPeak.Value(),
		EngineServiceAnalysis: m.EngineServiceAnalysis.snapshot(),
		EngineBatchDuration:   m.EngineBatchDuration.snapshot(),

		ParserMatchAttempts:  m.ParserMatchAttempts.Value(),
		ParserMatchMisses:    m.ParserMatchMisses.Value(),
		ParserExactCacheHits: m.ParserExactCacheHits.Value(),
		ParserPatterns:       m.ParserPatterns.Value(),

		StoreUpserts:            m.StoreUpserts.Value(),
		StoreTouches:            m.StoreTouches.Value(),
		StoreTouchUnknown:       m.StoreTouchUnknown.Value(),
		StoreDeletes:            m.StoreDeletes.Value(),
		StoreJournalAppends:     m.StoreJournalAppends.Value(),
		StoreIOErrors:           m.StoreIOErrors.Value(),
		StoreCompactions:        m.StoreCompactions.Value(),
		StorePatterns:           m.StorePatterns.Value(),
		StoreShards:             m.StoreShards.Value(),
		StoreShardContention:    m.StoreShardContention.Values(),
		StoreShardOps:           m.StoreShardOps.Values(),
		StoreCompactionDuration: m.StoreCompactionDuration.snapshot(),
		StoreBatchRecords:       m.StoreBatchRecords.Value(),
		StoreBatchBytes:         m.StoreBatchBytes.Value(),

		ArchiveBlocks:      m.ArchiveBlocks.Value(),
		ArchiveRecords:     m.ArchiveRecords.Value(),
		ArchiveBytesRaw:    m.ArchiveBytesRaw.Value(),
		ArchiveBytesStored: m.ArchiveBytesStored.Value(),
		ArchiveCacheHits:   m.ArchiveCacheHits.Value(),
		ArchiveCacheMisses: m.ArchiveCacheMisses.Value(),
		ArchiveIOErrors:    m.ArchiveIOErrors.Value(),

		ArchiveRetiredBlocks: m.ArchiveRetiredBlocks.Value(),
		ArchiveSegments:      m.ArchiveSegments.Value(),
		ArchiveFlushDuration: m.ArchiveFlushDuration.snapshot(),

		MaskMatches:       m.MaskMatches.Value(),
		MaskBytesRedacted: m.MaskBytesRedacted.Value(),
		MaskRulesLoaded:   m.MaskRulesLoaded.Value(),
		MaskErrors:        m.MaskErrors.Value(),
	}
}

// String renders the snapshot as JSON, which makes *Metrics satisfy the
// expvar.Var interface: expvar.Publish("seqrtg", rtg.Metrics()) exposes
// it on /debug/vars with no further glue.
func (m *Metrics) String() string {
	b, err := json.Marshal(m.Snapshot())
	if err != nil {
		// Snapshot is a flat struct of numbers; Marshal cannot fail.
		return "{}"
	}
	return string(b)
}

// WriteJSON writes the snapshot as indented JSON.
func (m *Metrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m.Snapshot())
}

// metricDesc describes one exported metric for the Prometheus writer.
type metricDesc struct {
	name string
	help string
	kind string // counter | gauge | histogram | countervec
	c    *Counter
	g    *Gauge
	h    *Histogram
	v    *CounterVec
	// label is the label name each CounterVec slot index is rendered
	// under (e.g. shard="3").
	label string
	// labelVals, when set, renders slot i with labelVals[i] instead of
	// the numeric index (e.g. listener="udp").
	labelVals []string
}

func (m *Metrics) descs() []metricDesc {
	return []metricDesc{
		{name: MetricIngestLines, help: "Input lines read from the stream, including empty and malformed ones.", kind: "counter", c: &m.IngestLines},
		{name: MetricIngestRecords, help: "Well-formed records decoded from the stream.", kind: "counter", c: &m.IngestRecords},
		{name: MetricIngestDecodeErrors, help: "Malformed input lines skipped (or rejected in strict mode).", kind: "counter", c: &m.IngestDecodeErrors},
		{name: MetricIngestDecodeFallback, help: "JSON lines outside the plain wire shape, left to encoding/json to decode or reject.", kind: "counter", c: &m.IngestDecodeFallback},
		{name: MetricIngestOversize, help: "Input lines discarded for exceeding the line-size bound.", kind: "counter", c: &m.IngestOversize},
		{name: MetricIngestBatches, help: "Batches handed from the ingester to analysis.", kind: "counter", c: &m.IngestBatches},
		{name: MetricIngestBatchFill, help: "Seconds spent filling one batch from the input stream.", kind: "histogram", h: m.IngestBatchFill},

		{name: MetricServerAccepted, help: "Records accepted into the server's ingestion queue, per listener.", kind: "countervec", v: &m.ServerAccepted, label: "listener", labelVals: ListenerNames},
		{name: MetricServerParseErrors, help: "Datagrams, frames or lines rejected as unparseable, per listener.", kind: "countervec", v: &m.ServerParseErrors, label: "listener", labelVals: ListenerNames},
		{name: MetricServerShed, help: "Records shed because the ingestion queue stayed full past the push deadline, per listener.", kind: "countervec", v: &m.ServerShed, label: "listener", labelVals: ListenerNames},
		{name: MetricServerQueueDepth, help: "Records currently queued between the network listeners and analysis.", kind: "gauge", g: &m.ServerQueueDepth},
		{name: MetricServerIngestLatency, help: "Seconds from queue admission to durable persistence of a batch's oldest record.", kind: "histogram", h: m.ServerIngestLatency},

		{name: MetricEngineBatches, help: "Batches analysed by the engine.", kind: "counter", c: &m.EngineBatches},
		{name: MetricEngineMessages, help: "Messages processed by the engine.", kind: "counter", c: &m.EngineMessages},
		{name: MetricEngineParseHits, help: "Messages matched by an already-known pattern (the parse-first short circuit).", kind: "counter", c: &m.EngineParseHits},
		{name: MetricEngineUnmatched, help: "Messages that went to trie analysis.", kind: "counter", c: &m.EngineUnmatched},
		{name: MetricEnginePatternsMined, help: "Patterns discovered and saved, after the save threshold.", kind: "counter", c: &m.EnginePatternsMined},
		{name: MetricEngineEarlyHarvests, help: "Analysis tries harvested early because MaxTrieNodes was exceeded.", kind: "counter", c: &m.EngineEarlyHarvests},
		{name: MetricEngineTrieNodesPeak, help: "Largest per-service analysis trie observed, in nodes.", kind: "gauge", g: &m.EngineTrieNodesPeak},
		{name: MetricEngineServiceAnalysis, help: "Per-service analysis wall time.", kind: "histogram", h: m.EngineServiceAnalysis},
		{name: MetricEngineBatchDuration, help: "Whole-batch analysis wall time.", kind: "histogram", h: m.EngineBatchDuration},

		{name: MetricParserMatchAttempts, help: "Pattern match attempts.", kind: "counter", c: &m.ParserMatchAttempts},
		{name: MetricParserMatchMisses, help: "Pattern match attempts that found no pattern.", kind: "counter", c: &m.ParserMatchMisses},
		{name: MetricParserExactCacheHits, help: "Matches served from the verbatim-message cache without tokenizing.", kind: "counter", c: &m.ParserExactCacheHits},
		{name: MetricParserPatterns, help: "Patterns currently registered in the parser.", kind: "gauge", g: &m.ParserPatterns},

		{name: MetricStoreUpserts, help: "Patterns inserted into or merged with the store.", kind: "counter", c: &m.StoreUpserts},
		{name: MetricStoreTouches, help: "Match-statistic updates applied to stored patterns.", kind: "counter", c: &m.StoreTouches},
		{name: MetricStoreTouchUnknown, help: "Match-statistic updates for patterns no longer in the store (purged mid-batch), recovered by re-upsert.", kind: "counter", c: &m.StoreTouchUnknown},
		{name: MetricStoreDeletes, help: "Patterns deleted from the store, including purges.", kind: "counter", c: &m.StoreDeletes},
		{name: MetricStoreJournalAppends, help: "Records appended to the write-ahead journal.", kind: "counter", c: &m.StoreJournalAppends},
		{name: MetricStoreIOErrors, help: "Failed disk operations in the pattern store (journal append/flush/sync, snapshot write).", kind: "counter", c: &m.StoreIOErrors},
		{name: MetricStoreCompactions, help: "Snapshot compactions of the pattern database.", kind: "counter", c: &m.StoreCompactions},
		{name: MetricStorePatterns, help: "Patterns currently stored.", kind: "gauge", g: &m.StorePatterns},
		{name: MetricStoreShards, help: "Service-hash shards of the pattern store.", kind: "gauge", g: &m.StoreShards},
		{name: MetricStoreShardContention, help: "Shard lock acquisitions that had to wait for another goroutine, per shard.", kind: "countervec", v: &m.StoreShardContention, label: "shard"},
		{name: MetricStoreShardOps, help: "Store mutations (upsert/touch/delete) applied, per shard.", kind: "countervec", v: &m.StoreShardOps, label: "shard"},
		{name: MetricStoreCompactionDuration, help: "Pattern database compaction wall time.", kind: "histogram", h: m.StoreCompactionDuration},
		{name: MetricStoreBatchRecords, help: "Journal records written through ApplyBatch group commits.", kind: "counter", c: &m.StoreBatchRecords},
		{name: MetricStoreBatchBytes, help: "Journal bytes written by ApplyBatch group commits.", kind: "counter", c: &m.StoreBatchBytes},

		{name: MetricArchiveBlocks, help: "Archive blocks sealed and published.", kind: "counter", c: &m.ArchiveBlocks},
		{name: MetricArchiveRecords, help: "Matched messages appended to the archive.", kind: "counter", c: &m.ArchiveRecords},
		{name: MetricArchiveBytesRaw, help: "Raw message bytes represented by archived records.", kind: "counter", c: &m.ArchiveBytesRaw},
		{name: MetricArchiveBytesStored, help: "Bytes written to published archive segment files.", kind: "counter", c: &m.ArchiveBytesStored},
		{name: MetricArchiveCacheHits, help: "Archive block reads served from the LRU block cache.", kind: "counter", c: &m.ArchiveCacheHits},
		{name: MetricArchiveCacheMisses, help: "Archive block reads that had to load and decode a block.", kind: "counter", c: &m.ArchiveCacheMisses},
		{name: MetricArchiveIOErrors, help: "Failed archive disk operations (flush write/sync/rename).", kind: "counter", c: &m.ArchiveIOErrors},
		{name: MetricArchiveRetiredBlocks, help: "Archive segment files deleted by the retention horizon.", kind: "counter", c: &m.ArchiveRetiredBlocks},
		{name: MetricArchiveSegments, help: "Archive segment files published, one per time bucket a flush touches.", kind: "counter", c: &m.ArchiveSegments},
		{name: MetricArchiveFlushDuration, help: "Seconds to encode, write, sync and rename one archive flush's segments.", kind: "histogram", h: m.ArchiveFlushDuration},

		{name: MetricMaskMatches, help: "Sensitive spans rewritten by a masking detector or rule.", kind: "counter", c: &m.MaskMatches},
		{name: MetricMaskBytesRedacted, help: "Raw input bytes hidden by the masking stage.", kind: "counter", c: &m.MaskBytesRedacted},
		{name: MetricMaskRulesLoaded, help: "User masking rules loaded from rules files.", kind: "counter", c: &m.MaskRulesLoaded},
		{name: MetricMaskErrors, help: "Masking rule lines rejected by lenient rule loading.", kind: "counter", c: &m.MaskErrors},
	}
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format (version 0.0.4), ready to be scraped from a /metrics endpoint.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	bw := newErrWriter(w)
	for _, d := range m.descs() {
		promKind := d.kind
		if promKind == "countervec" {
			promKind = "counter" // a labelled counter family
		}
		bw.printf("# HELP %s %s\n", d.name, d.help)
		bw.printf("# TYPE %s %s\n", d.name, promKind)
		switch d.kind {
		case "counter":
			bw.printf("%s %d\n", d.name, d.c.Value())
		case "gauge":
			bw.printf("%s %d\n", d.name, d.g.Value())
		case "countervec":
			for i, val := range d.v.Values() {
				if i < len(d.labelVals) {
					bw.printf("%s{%s=%q} %d\n", d.name, d.label, d.labelVals[i], val)
				} else {
					bw.printf("%s{%s=\"%d\"} %d\n", d.name, d.label, i, val)
				}
			}
		case "histogram":
			s := d.h.snapshot()
			for _, b := range s.Buckets {
				bw.printf("%s_bucket{le=%q} %d\n", d.name, formatLe(b.UpperBound), b.Count)
			}
			bw.printf("%s_sum %s\n", d.name, formatFloat(s.Sum))
			bw.printf("%s_count %d\n", d.name, s.Count)
		}
	}
	return bw.err
}

// formatLe renders a bucket upper bound the way Prometheus does.
func formatLe(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return formatFloat(v)
}

func formatFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}

// errWriter remembers the first write error so the exposition loop does
// not need an error check per line.
type errWriter struct {
	w   io.Writer
	err error
}

func newErrWriter(w io.Writer) *errWriter { return &errWriter{w: w} }

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
