package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	sequence "repro"
)

// liveCounts is what the traced live pass observed from outside: the
// boundary spans' time and the operation counts that BatchResult and
// Snapshot report.
type liveCounts struct {
	res        sequence.BatchResult
	batches    int64
	analyzeNs  int64
	flushNs    int64
	windowNs   int64
	loopSelfNs int64
	masked     bool
	archived   bool
}

func (l *liveCounts) add(res sequence.BatchResult) {
	l.res.Messages += res.Messages
	l.res.Matched += res.Matched
	l.res.Unmatched += res.Unmatched
	l.res.NewPatterns += res.NewPatterns
	l.batches++
}

// fromTrace fills the span-derived fields from the live boundary spans:
// "window" is the root of the timed window, "analyze" and "flush" its
// children.
func (l *liveCounts) fromTrace(tr *tracer) {
	l.analyzeNs, _ = tr.total("analyze")
	l.flushNs, _ = tr.total("flush")
	l.windowNs, _ = tr.total("window")
	l.loopSelfNs = tr.selfTime("window")
}

// snapDelta is the part of two metric snapshots the per-layer metrics
// need, as after minus before.
type snapDelta struct {
	exactHits, matches, storeOps, journalBytes         int64
	arcRecords, arcBlocks, arcStored, arcHits, arcMiss int64
	patterns                                           int64
}

func delta(before, after sequence.MetricsSnapshot) snapDelta {
	return snapDelta{
		exactHits: after.ParserExactCacheHits - before.ParserExactCacheHits,
		// A verbatim-cache hit counts as a match attempt too; the rest
		// are the Match calls that walked the index.
		matches: after.ParserMatchAttempts - before.ParserMatchAttempts -
			(after.ParserExactCacheHits - before.ParserExactCacheHits),
		storeOps:     after.StoreUpserts + after.StoreTouches - before.StoreUpserts - before.StoreTouches,
		journalBytes: after.StoreBatchBytes - before.StoreBatchBytes,
		arcRecords:   after.ArchiveRecords - before.ArchiveRecords,
		arcBlocks:    after.ArchiveBlocks - before.ArchiveBlocks,
		arcStored:    after.ArchiveBytesStored - before.ArchiveBytesStored,
		arcHits:      after.ArchiveCacheHits - before.ArchiveCacheHits,
		arcMiss:      after.ArchiveCacheMisses - before.ArchiveCacheMisses,
		patterns:     after.ParserPatterns,
	}
}

// layerMetrics sets every per-layer metric that comes from the shadow's
// costs and the live counts, and builds the waterfall: each row is the
// shadow's cost per operation times the live operation count, and the
// rows plus the residual sum to the live analyze+flush time.
func (e *env) layerMetrics(c shadowCosts, fs *countFS, l liveCounts, d snapDelta) {
	msgs := float64(l.res.Messages)
	e.set("server.parse_syslog_ns_per_msg", c.parseSyslog.perOp())
	e.set("ingest.decode_ns_per_msg", c.decode.perOp())
	e.set("mask.ns_per_msg", c.mask.perOp())
	e.set("mask.changed_share", ratio(float64(c.maskChanged), float64(c.mask.ops)))
	e.set("token.scan_ns_per_msg", c.scan.perOp())
	e.set("parser.match_ns_per_msg", c.match.perOp())
	e.set("analyzer.add_ns_per_msg", c.add.perOp())
	e.set("analyzer.patterns_ms_per_batch", ratio(float64(c.patterns.ns), float64(c.batches))/1e6)
	e.set("store.apply_batch_ns_per_op", c.apply.perOp())
	e.set("store.flush_ms_per_batch", c.storeFlush.perOp()/1e6)
	e.set("archive.append_ns_per_rec", c.arcAppend.perOp())
	e.set("archive.flush_ms_per_batch", c.arcFlush.perOp()/1e6)
	e.set("vfs.syncs_per_batch", ratio(float64(fs.syncs), float64(c.batches)))
	e.set("vfs.sync_ms_per_batch", ratio(float64(fs.syncNs), float64(c.batches))/1e6)
	e.set("vfs.write_bytes_per_msg", ratio(float64(fs.writeBytes), float64(c.messages)))

	e.set("parser.hit_share", ratio(float64(l.res.Matched), msgs))
	e.set("parser.exact_hit_share", ratio(float64(d.exactHits), msgs))
	e.set("parser.patterns", float64(d.patterns))
	e.set("analyzer.unmatched_share", ratio(float64(l.res.Unmatched), msgs))
	e.set("analyzer.new_patterns", float64(l.res.NewPatterns))
	e.set("core.analyze_ns_per_msg", ratio(float64(l.analyzeNs), msgs))
	e.set("core.flush_ns_per_msg", ratio(float64(l.flushNs), msgs))
	e.set("core.busy_share", ratio(float64(l.analyzeNs+l.flushNs), float64(l.windowNs)))
	e.set("core.loop_self_ns_per_msg", ratio(float64(l.loopSelfNs), msgs))
	e.set("core.traced_msgs_per_s", ratio(msgs, float64(l.windowNs)/1e9))
	e.set("store.journal_bytes_per_msg", ratio(float64(d.journalBytes), msgs))
	e.set("archive.blocks", float64(d.arcBlocks))
	e.set("archive.stored_bytes_per_msg", ratio(float64(d.arcStored), msgs))
	e.set("archive.cache_hit_share", ratio(float64(d.arcHits), float64(d.arcHits+d.arcMiss)))

	// The live engine scans every message the verbatim cache misses,
	// and scans cache hits again when it has to slice out the archived
	// variable values.
	scans := int64(l.res.Messages) - d.exactHits
	if l.archived {
		scans += d.exactHits
	}
	maskOps := int64(0)
	if l.masked {
		maskOps = int64(l.res.Messages)
	}
	perBatch := func(s stage) float64 { return ratio(float64(s.ns), float64(c.batches)) }
	rows := []waterfallRow{
		{Layer: "mask", NsPerOp: c.mask.perOp(), Ops: maskOps},
		{Layer: "token.scan", NsPerOp: c.scan.perOp(), Ops: scans},
		{Layer: "parser.match", NsPerOp: c.match.perOp(), Ops: d.matches},
		{Layer: "analyzer.add", NsPerOp: c.add.perOp(), Ops: int64(l.res.Unmatched)},
		{Layer: "analyzer.patterns", NsPerOp: perBatch(c.patterns), Ops: l.batches},
		{Layer: "store.apply_batch", NsPerOp: c.apply.perOp(), Ops: d.storeOps},
		{Layer: "store.flush", NsPerOp: perBatch(c.storeFlush), Ops: l.batches},
		{Layer: "archive.append", NsPerOp: c.arcAppend.perOp(), Ops: d.arcRecords},
		{Layer: "archive.flush", NsPerOp: perBatch(c.arcFlush), Ops: l.batches},
	}
	live := ratio(float64(l.analyzeNs+l.flushNs), msgs)
	residual := live
	for i := range rows {
		rows[i].NsMsg = ratio(rows[i].NsPerOp*float64(rows[i].Ops), msgs)
		residual -= rows[i].NsMsg
	}
	e.set("core.residual_ns_per_msg", residual)
	e.out.Waterfall = append(rows, waterfallRow{Layer: "core.residual", NsMsg: residual})
	e.out.LiveNsMsg = live
}

// liveReads times the read paths of the live system at the end of the
// traced window: listing the patterns, exporting them, and (with the
// archive on) a direct archive query for the hottest service.
func (e *env) liveReads(rtg *sequence.RTG) error {
	ms, err := medianMs(5, func() error { rtg.Patterns(); return nil })
	if err != nil {
		return err
	}
	e.set("store.list_ms", ms)
	if ms, err = medianMs(3, func() error { return rtg.Export(io.Discard, sequence.FormatPatternDB, sequence.ExportOptions{}) }); err != nil {
		return err
	}
	e.set("export.patterndb_ms", ms)
	if arc := rtg.Archive(); arc != nil {
		if ms, err = medianMs(5, func() error {
			_, err := arc.Query(sequence.ArchiveQuery{Service: hottestService, Limit: 100})
			return err
		}); err != nil {
			return err
		}
		e.set("archive.query_ms", ms)
	}
	return nil
}

// verifyDB reopens the database in dir and checks it against what was
// sent: the pattern counts add up to the records sent, and every record
// of the deterministic sample parses to a pattern. It returns the sorted
// pattern IDs.
func (e *env) verifyDB(dir string, sent int, samples []sampled, opts ...sequence.Option) ([]string, error) {
	rtg, err := sequence.Open(dir, opts...)
	if err != nil {
		return nil, err
	}
	defer rtg.Close()
	ps := rtg.Patterns()
	var sum int64
	for _, p := range ps {
		sum += p.Count
	}
	e.check("pattern_counts_sum_to_sent", sum == int64(sent), "pattern counts sum to %d, sent %d", sum, sent)
	missed, tried := 0, 0
	var first string
	for _, s := range samples {
		if s.index >= sent {
			break
		}
		tried++
		if _, _, ok := rtg.Parse(s.rec.Service, s.rec.Message); !ok {
			if missed++; first == "" {
				first = s.rec.Service + ": " + s.rec.Message
			}
		}
	}
	e.check("sample_parses", missed == 0, "%d of %d sampled records parse to no pattern, first %q", missed, tried, first)
	return patternIDs(ps), nil
}

// warmShadow takes the shadow through what warmOpen did to the live
// system: the warm-up file in the same batches, then a reopen, which it
// times. The costs measured so far are dropped.
func (e *env) warmShadow(sh *shadow, warmPath string, warmN int) error {
	if err := sh.feedFile(warmPath, splitBatches(warmN, warmBatch(warmN))); err != nil {
		return err
	}
	reopen, err := sh.reopen()
	if err != nil {
		return err
	}
	e.set("store.reopen_ms", float64(reopen)/1e6)
	sh.resetCosts()
	return nil
}

// counts records the run's deterministic counts and its pattern digest:
// two runs of the same code that consumed the same batches agree on them
// exactly.
func (e *env) counts(sent int, res sequence.BatchResult, ids []string) {
	e.out.Digest = digest(ids)
	e.out.Counts["sent"] = int64(sent)
	e.out.Counts["matched"] = int64(res.Matched)
	e.out.Counts["unmatched"] = int64(res.Unmatched)
	e.out.Counts["new_patterns"] = int64(res.NewPatterns)
	e.out.Counts["patterns"] = int64(len(ids))
}

// sameIDs checks the shadow's pattern set against the live system's.
func (e *env) sameIDs(live, shadow []string) {
	ok := len(live) == len(shadow)
	for i := 0; ok && i < len(live); i++ {
		ok = live[i] == shadow[i]
	}
	e.check("shadow_patterns_equal_live", ok, "live has %d patterns (digest %s), shadow %d (digest %s)",
		len(live), digest(live), len(shadow), digest(shadow))
}

// scanLeaks byte-scans every file under dir for the seeded PII literals.
func (e *env) scanLeaks(dir string, literals []string) error {
	leaks := 0
	var first string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, lit := range literals {
			if bytes.Contains(b, []byte(lit)) {
				if leaks++; first == "" {
					first = fmt.Sprintf("%s in %s", lit, filepath.Base(path))
				}
			}
		}
		return nil
	})
	e.check("no_pii_literal_on_disk", leaks == 0, "%d seeded PII literals found in the data directory, first %s", leaks, first)
	return err
}
