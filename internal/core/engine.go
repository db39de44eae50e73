// Package core is the Sequence-RTG engine: it wires the scanner, parser,
// analyzer and pattern store into the batch workflow of the paper's Fig 2.
//
// Two entry points mirror the paper's speed comparison (Fig 5):
//
//   - Analyze is the original Sequence behaviour: every record of the
//     batch, regardless of source system, is mined in one shared analysis
//     partitioned only by token count.
//
//   - AnalyzeByService is the Sequence-RTG method: records are first
//     partitioned by service; each message is then parsed against the
//     known patterns of its service and only unmatched messages continue
//     to analysis, where a second partitioning by token count selects the
//     trie that will mine them. Newly found patterns are saved to the
//     database for comparison against subsequent batches and for export.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/analyzer"
	"repro/internal/archive"
	"repro/internal/ingest"
	"repro/internal/mask"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/patterns"
	"repro/internal/store"
	"repro/internal/token"
)

// Config tunes the engine.
type Config struct {
	// Analyzer configures pattern mining.
	Analyzer analyzer.Config
	// SaveThreshold drops discovered patterns matched fewer than this many
	// times in the discovering batch ("any pattern whose count of matches
	// is less than the threshold is considered useless and thus not
	// saved", §IV). Zero keeps everything.
	SaveThreshold int64
	// MaxTrieNodes bounds one service's analysis trie; when exceeded the
	// trie is harvested early and reset, the paper's defence against very
	// large data sets exhausting memory (limitation 5). Zero means no
	// bound.
	MaxTrieNodes int
	// Concurrency is the number of services analysed in parallel by
	// AnalyzeByService. The default (0 or 1) is the paper's sequential
	// behaviour; since patterns never cross services, service partitions
	// are embarrassingly parallel (§IV discusses exactly this scaling).
	Concurrency int
	// Shards is the parser's service-shard count (0 selects GOMAXPROCS).
	// Use the same value as the store so the two layers partition work
	// identically; a service worker then contends only with workers whose
	// services hash to the same shard.
	Shards int
	// Scanner enables the optional scanner extensions (unpadded times,
	// path FSM); the zero value is the published scanner.
	Scanner token.Config
	// Metrics receives engine, parser and store instrumentation. A fresh
	// private instance is used when nil, so instrumentation is always on
	// and callers that do not care pay only the atomic adds.
	Metrics *obs.Metrics
	// Archive, when non-nil, receives every matched message on the parse
	// path as a (timestamp, pattern ID, variable values) record — the
	// pattern-aware compressed log store. Nil (the default) disables
	// archiving entirely.
	Archive *archive.Archive
	// Mask, when non-nil, is the PII masking stage: every message is
	// rewritten by it before the parser's exact cache, the analyzer, the
	// store journal, or the archive see the text, so raw sensitive
	// values never become pattern examples, cache keys, or archived
	// variable values. Nil (the default) disables masking.
	Mask *mask.Masker
}

// Engine is a Sequence-RTG instance bound to a pattern store.
type Engine struct {
	cfg    Config
	store  *store.Store
	parser *parser.Parser
	m      *obs.Metrics
}

// NewEngine creates an engine over a pattern store and loads every stored
// pattern into the parser, making patterns persistent across executions.
func NewEngine(st *store.Store, cfg Config) *Engine {
	if cfg.Metrics == nil {
		cfg.Metrics = obs.New()
	}
	e := &Engine{cfg: cfg, store: st, parser: parser.NewSharded(cfg.Shards), m: cfg.Metrics}
	e.parser.SetMetrics(e.m)
	st.SetMetrics(e.m)
	for _, p := range st.All() {
		e.parser.Add(p)
	}
	return e
}

// Metrics returns the engine's shared instrumentation.
func (e *Engine) Metrics() *obs.Metrics { return e.m }

// Store returns the engine's pattern store.
func (e *Engine) Store() *store.Store { return e.store }

// AddPattern registers (or refreshes) one pattern in the engine's parser
// without touching the store; used when patterns arrive from outside the
// mining path (hand-authored patterns).
func (e *Engine) AddPattern(p *patterns.Pattern) { e.parser.Add(p) }

// ReplacePatterns atomically swaps the parser's full pattern set. A
// concurrent Parse observes either the previous set or the new one,
// never an intermediate state — the refresh step of a database merge.
func (e *Engine) ReplacePatterns(ps []*patterns.Pattern) { e.parser.Replace(ps) }

// PatternCount returns the number of patterns currently known to the
// parser.
func (e *Engine) PatternCount() int { return e.parser.Len() }

// BatchResult summarises the processing of one batch.
type BatchResult struct {
	// Messages is the number of records processed.
	Messages int
	// Matched counts records matched by an already-known pattern.
	Matched int
	// Unmatched counts records that went to analysis.
	Unmatched int
	// NewPatterns is the number of patterns discovered in this batch
	// (after the save threshold).
	NewPatterns int
	// Services is the number of distinct services seen in the batch.
	Services int
	// Duration is the wall time spent.
	Duration time.Duration
}

func (r *BatchResult) add(o BatchResult) {
	r.Messages += o.Messages
	r.Matched += o.Matched
	r.Unmatched += o.Unmatched
	r.NewPatterns += o.NewPatterns
}

// maskMsg runs the masking stage over one message; a nil masker is a
// no-op. Patterns are mined from (and matched against) masked text, so
// every path that feeds text downstream must pass through here first.
func (e *Engine) maskMsg(msg string) string {
	if e.cfg.Mask == nil {
		return msg
	}
	out, _ := e.cfg.Mask.Mask(msg)
	return out
}

// maskMessages applies the masking stage to a whole service partition
// in place, before anything downstream (exact cache, analyzer, store,
// archive) sees the text.
func (e *Engine) maskMessages(msgs []string) []string {
	if e.cfg.Mask == nil {
		return msgs
	}
	for i, msg := range msgs {
		if out, changed := e.cfg.Mask.Mask(msg); changed {
			msgs[i] = out
		}
	}
	return msgs
}

// Parse matches a single message against the known patterns of a service
// without learning anything, returning the pattern and the extracted
// variable values. The message passes through the masking stage first:
// patterns are mined from masked text, so a raw message containing PII
// only matches after the same rewrite.
func (e *Engine) Parse(service, message string) (*patterns.Pattern, map[string]string, bool) {
	message = e.maskMsg(message)
	s := token.NewScanner(e.cfg.Scanner)
	defer s.Release()
	toks := token.Enrich(s.Scan(message))
	p, ok := e.parser.Match(service, toks)
	if !ok {
		return nil, nil, false
	}
	vals, _ := p.Extract(toks)
	return p, vals, true
}

// mixedService is the pseudo-service the classic Analyze mines and
// stores every record under.
const mixedService = "mixed"

// Analyze processes a batch the way the original Sequence does: one
// analysis over all records under the "mixed" pseudo-service, with no
// service partitioning and no parse-before-analyze short circuit. Kept
// for the Fig 5 comparison and for single-source ad-hoc use. It runs the
// same per-partition pass as AnalyzeByService, so the trie bound and the
// engine metrics cover it too.
func (e *Engine) Analyze(records []ingest.Record, now time.Time) (BatchResult, error) {
	return e.analyzeBatch(context.Background(), records, now, false)
}

// AnalyzeByService processes a batch with the Sequence-RTG workflow
// (paper Fig 2): partition by service, parse known patterns first, mine
// only the unmatched remainder partitioned by token count, then persist
// discoveries.
func (e *Engine) AnalyzeByService(records []ingest.Record, now time.Time) (BatchResult, error) {
	return e.AnalyzeByServiceContext(context.Background(), records, now)
}

// AnalyzeByServiceContext is AnalyzeByService with cancellation: the
// batch stops cleanly between service partitions once ctx is done
// (in-flight partitions finish, no further ones start) and the error is
// ctx.Err(). The returned BatchResult covers the partitions that
// completed.
func (e *Engine) AnalyzeByServiceContext(ctx context.Context, records []ingest.Record, now time.Time) (BatchResult, error) {
	return e.analyzeBatch(ctx, records, now, true)
}

// partition is one unit of analysis: a service and its messages in
// arrival order.
type partition struct {
	svc  string
	msgs []string
}

// partitionRecords groups a batch for analysis. By service it returns
// one partition per service, sorted by name; otherwise one partition
// under mixedService holding every message. services is the number of
// distinct services in the batch either way.
func partitionRecords(records []ingest.Record, byService bool) (parts []partition, services int) {
	if !byService {
		parts = []partition{{svc: mixedService, msgs: make([]string, 0, len(records))}}
	}
	// One map lookup per record: the map holds each service's index into
	// parts (always 0 when not partitioning by service), and the messages
	// append to the slice element in place.
	index := make(map[string]int)
	for _, rec := range records {
		i, ok := index[rec.Service]
		if !ok {
			if byService {
				i = len(parts)
				parts = append(parts, partition{svc: rec.Service})
			}
			index[rec.Service] = i
		}
		parts[i].msgs = append(parts[i].msgs, rec.Message)
	}
	sort.Slice(parts, func(a, b int) bool { return parts[a].svc < parts[b].svc })
	return parts, len(index)
}

// analyzeBatch is the one batch pass behind Analyze and
// AnalyzeByService: partition the records, run analyzeService over the
// partitions on up to Concurrency workers, and record the batch
// metrics. byService selects the Sequence-RTG workflow (per-service
// partitions, parse first); without it the batch is one mixed partition
// that is mined whole.
func (e *Engine) analyzeBatch(ctx context.Context, records []ingest.Record, now time.Time, byService bool) (BatchResult, error) {
	start := time.Now()
	parts, services := partitionRecords(records, byService)
	res := BatchResult{Services: services}

	// Workers above GOMAXPROCS are allowed: a worker blocked on a shard
	// lock or journal write is not using its CPU, so modest
	// oversubscription keeps cores busy.
	workers := e.cfg.Concurrency
	if workers <= 0 {
		workers = 1
	}

	type svcOut struct {
		res BatchResult
		err error
	}
	var (
		outs = make([]svcOut, len(parts))
		sem  = make(chan struct{}, workers)
		wg   sync.WaitGroup
	)
dispatch:
	for i, part := range parts {
		// Checked first: a select with both channels ready picks randomly,
		// and a cancelled context must deterministically stop dispatch.
		if ctx.Err() != nil {
			break dispatch
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			break dispatch
		}
		wg.Add(1)
		go func(i int, part partition) {
			defer wg.Done()
			defer func() { <-sem }()
			r, err := e.analyzeService(part.svc, part.msgs, now, byService)
			outs[i] = svcOut{res: r, err: err}
		}(i, part)
	}
	wg.Wait()
	for _, o := range outs {
		if o.err != nil {
			return res, o.err
		}
		res.add(o.res)
	}
	res.Duration = time.Since(start)
	e.m.EngineBatches.Inc()
	e.m.EngineMessages.Add(int64(res.Messages))
	e.m.EngineParseHits.Add(int64(res.Matched))
	e.m.EngineUnmatched.Add(int64(res.Unmatched))
	e.m.EnginePatternsMined.Add(int64(res.NewPatterns))
	e.m.EngineBatchDuration.ObserveDuration(res.Duration)
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// analyzeService runs the per-partition pipeline. With parseFirst each
// message is matched against svc's known patterns first and only the
// unmatched ones are mined; without it (the classic Analyze) every
// message is mined. No cross-worker lock is needed: every store and
// parser mutation made here is keyed by svc, so it lands in svc's shard
// of each layer, and a service is only ever handled by one worker per
// batch.
func (e *Engine) analyzeService(svc string, msgs []string, now time.Time, parseFirst bool) (BatchResult, error) {
	start := time.Now()
	defer e.m.EngineServiceAnalysis.ObserveSince(start)
	res := BatchResult{Messages: len(msgs)}
	// The masking stage rewrites the partition before anything below —
	// the exact cache, the analyzer trie, the store journal, and the
	// archive — can observe raw text.
	msgs = e.maskMessages(msgs)
	a := analyzer.New(svc, e.cfg.Analyzer)
	s := token.NewScanner(e.cfg.Scanner)
	defer s.Release()

	// Accumulate per-pattern match statistics and flush them once at the
	// end, so a pattern matched a thousand times costs one journal record.
	type hit struct {
		n       int64
		example string
		pat     *patterns.Pattern
	}
	hits := make(map[string]*hit)

	// Ops accumulate across the whole partition and commit as one
	// group-committed ApplyBatch: one shard lock acquisition and one
	// journal append for the entire service, instead of one per pattern.
	var ops []store.Op

	flushMined := func() {
		mined, saved := e.mineOps(a, now)
		ops = append(ops, mined...)
		res.NewPatterns += saved
	}

	record := func(p *patterns.Pattern, msg string) {
		res.Matched++
		h := hits[p.ID]
		if h == nil {
			h = &hit{pat: p}
			hits[p.ID] = h
		}
		h.n++
		if h.example == "" {
			h.example = msg
		}
	}

	// archiveAdd appends a matched message to the archive as (timestamp,
	// pattern ID, variable values). toks may be nil on the exact-cache
	// fast path, which skips scanning — the archive needs the token spans
	// back to slice out the variable values, so that path re-scans.
	// Append failures are not batch-fatal: the archive is a derived
	// store, counts its own I/O errors, and retries at the next seal.
	var varScratch [][]byte
	archiveAdd := func(p *patterns.Pattern, msg string, toks []token.Token) {
		if e.cfg.Archive == nil {
			return
		}
		if toks == nil {
			toks = token.Enrich(s.Scan(msg))
		}
		varScratch = appendVarSpans(varScratch[:0], p, toks)
		_ = e.cfg.Archive.Append(svc, p.ID, now, varScratch, len(msg))
	}

	for _, msg := range msgs {
		// Repetitive traffic fast path: a byte-identical message seen since
		// the last pattern mutation skips scanning and matching entirely.
		if parseFirst {
			if p, ok := e.parser.MatchExact(svc, msg); ok {
				record(p, msg)
				archiveAdd(p, msg, nil)
				continue
			}
		}
		toks := token.Enrich(s.Scan(msg))
		if parseFirst {
			if p, ok := e.parser.Match(svc, toks); ok {
				e.parser.CacheExact(svc, msg, p)
				record(p, msg)
				archiveAdd(p, msg, toks)
				continue
			}
		}
		res.Unmatched++
		// Add interns everything it keeps, so the scanner's reused token
		// buffer can be handed over without copying.
		a.Add(toks, msg)
		if e.cfg.MaxTrieNodes > 0 && a.NodeCount() > e.cfg.MaxTrieNodes {
			e.m.EngineTrieNodesPeak.SetMax(int64(a.NodeCount()))
			e.m.EngineEarlyHarvests.Inc()
			flushMined()
			a = analyzer.New(svc, e.cfg.Analyzer)
		}
	}
	e.m.EngineTrieNodesPeak.SetMax(int64(a.NodeCount()))
	flushMined()

	// One coalesced touch per matched pattern, appended after the mined
	// upserts, then a single group commit for the whole partition. The
	// store journals the ops in order, so every touch lands after the
	// upsert that (re-)introduced its pattern.
	for id, h := range hits {
		ops = append(ops, store.Op{Kind: store.OpTouch, ID: id, N: h.n, When: now, Example: h.example})
	}
	unknown, err := e.store.ApplyBatch(svc, ops)
	if len(unknown) > 0 {
		// The parser knew patterns the store no longer holds — a purge or
		// external delete ran between registration and this batch. Not
		// batch-fatal: count each and re-seed the store from the parser's
		// copies in a follow-up batch so their statistics resume from here.
		reseed := make([]store.Op, 0, len(unknown))
		for _, id := range unknown {
			h := hits[id]
			if h == nil {
				continue
			}
			e.m.StoreTouchUnknown.Inc()
			cp := h.pat.Clone()
			cp.Count = h.n
			cp.LastMatched = now
			cp.Examples = nil
			cp.AddExample(h.example)
			reseed = append(reseed, store.Op{Kind: store.OpUpsert, Pattern: cp})
		}
		if _, rerr := e.store.ApplyBatch(svc, reseed); rerr != nil {
			err = errors.Join(err, rerr)
		}
	}
	if err != nil {
		// A failed group commit is retryable: the store counted the I/O
		// error (seqrtg_store_io_errors_total) and kept its in-memory
		// state, so the next batch's commit re-covers this one.
		return res, &PersistError{Err: fmt.Errorf("core: commit batch: %w", err)}
	}
	return res, nil
}

// Purge removes patterns matched fewer than minCount times or last
// matched before olderThan from the store AND the parser, keeping the
// two views consistent: a purged pattern must not keep matching (and
// shadowing re-discovery) out of the parser's index. It returns the
// number of patterns removed.
func (e *Engine) Purge(minCount int64, olderThan time.Time) (int, error) {
	ids, err := e.store.PurgeIDs(minCount, olderThan)
	for _, id := range ids {
		e.parser.Remove(id)
	}
	if err != nil {
		return len(ids), &PersistError{Err: err}
	}
	return len(ids), nil
}

// appendVarSpans collects the variable-position token spans of a
// matched message in pattern order — the positional values the archive
// stores. The element/token index alignment is the one Pattern.Match
// and Pattern.Extract establish: element i consumed token i, up to the
// TailAny marker.
//
//seqrtg:noalloc
func appendVarSpans(dst [][]byte, p *patterns.Pattern, toks []token.Token) [][]byte {
	for i := range p.Elements {
		e := &p.Elements[i]
		if e.Type == token.TailAny || i >= len(toks) {
			break
		}
		if e.Var {
			dst = append(dst, toks[i].Span)
		}
	}
	return dst
}

// mineOps extracts and filters the patterns mined by an analyzer,
// registers them with the parser, and returns the upsert ops that will
// commit them to the store. Registration deliberately precedes the
// store commit: later messages in the same partition match the fresh
// patterns immediately, and if the batch commit fails the store keeps
// its in-memory merge while the unknown-touch re-seed path covers a
// store that lost them entirely. Safe to call from concurrent service
// workers: the parser mutations are confined to the analyzer's service
// shard.
func (e *Engine) mineOps(a *analyzer.Analyzer, now time.Time) (ops []store.Op, saved int) {
	for _, p := range a.Patterns(now) {
		if e.cfg.SaveThreshold > 0 && p.Count < e.cfg.SaveThreshold {
			continue
		}
		ops = append(ops, store.Op{Kind: store.OpUpsert, Pattern: p})
		e.parser.Add(p)
		saved++
	}
	return ops, saved
}

// RunContext drains a batch source batch by batch through
// AnalyzeByServiceContext, calling report (if non-nil) after every batch
// and taking the Flush barrier after it. It is the main loop of the
// production deployment: the source is the stdin ingest.Reader when
// syslog-ng pipes unmatched messages to the Sequence-RTG child process
// (§III, §IV), or the server's bounded queue when seqrtg runs as a
// network daemon. The loop checks ctx between batches (and between
// service partitions within a batch) and returns ctx.Err() once
// cancelled, after flushing. A batch in flight when ctx fires is the
// most that completes — RunContext returns within one batch of
// cancellation.
func (e *Engine) RunContext(ctx context.Context, src ingest.BatchSource, report func(BatchResult)) (BatchResult, error) {
	var total BatchResult
	for {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		batch, err := src.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return total, err
		}
		res, err := e.AnalyzeByServiceContext(ctx, batch, time.Now())
		if err != nil {
			// Keep what the interrupted batch did manage (flush is
			// best-effort; the analysis error wins).
			total.add(res)
			_ = e.Flush()
			return total, err
		}
		total.add(res)
		total.Duration += res.Duration
		if res.Services > total.Services {
			total.Services = res.Services
		}
		if report != nil {
			report(res)
		}
		if err := e.Flush(); err != nil {
			// The batch's mutations are applied in memory but not yet
			// durable; the store recovers at its next successful barrier.
			return total, err
		}
	}
	return total, nil
}

// Flush is the per-batch durability barrier: it fsyncs the store's
// journals, then seals the archive's open blocks (when archiving is on),
// so every pattern statistic and every archived record of the batches
// before it survives a crash together. Failures of either are joined
// into one *PersistError.
func (e *Engine) Flush() error {
	err := e.store.Flush()
	if e.cfg.Archive != nil {
		err = errors.Join(err, e.cfg.Archive.Flush())
	}
	if err != nil {
		return &PersistError{Err: err}
	}
	return nil
}
