package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	sequence "repro"
	"repro/internal/ingest"
)

// segReader serves a pre-rendered JSON-lines file whose segments are
// whole analysis batches. It never returns bytes across a segment end,
// so the ingester's buffer is empty at every batch boundary and the
// first Read of a segment happens right after the previous batch's
// Flush returned. At a boundary past the deadline it reports io.EOF,
// which ends the stream on a whole batch. Every Read is stamped: that is
// all the latency accounting needs, with no hook inside the system.
type segReader struct {
	f        *os.File
	ends     []int64 // byte offset where each segment ends
	seg      int     // segment being served
	off      int64
	deadline time.Time // zero = serve every segment
	base     time.Time
	reads    []readStamp
	// boundary[k] is when segment k's first Read was asked for; the last
	// entry is the Read that returned io.EOF.
	boundary []int64
}

type readStamp struct {
	at    int64 // ns since base
	bytes int
	seg   int
}

func newSegReader(path string, ends []int64) (*segReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &segReader{f: f, ends: ends, seg: -1, base: time.Now()}, nil
}

func (r *segReader) Read(p []byte) (int, error) {
	now := time.Now()
	at := int64(now.Sub(r.base))
	if r.seg < 0 || r.off == r.ends[r.seg] {
		r.boundary = append(r.boundary, at)
		if r.seg+1 == len(r.ends) || (r.seg >= 0 && !r.deadline.IsZero() && !now.Before(r.deadline)) {
			return 0, io.EOF
		}
		r.seg++
	}
	if room := r.ends[r.seg] - r.off; int64(len(p)) > room {
		p = p[:room]
	}
	n, err := r.f.Read(p)
	r.off += int64(n)
	r.reads = append(r.reads, readStamp{at, n, r.seg})
	return n, err
}

// served is the number of whole segments handed to the system.
func (r *segReader) served() int { return r.seg + 1 }

// finish stamps the return of the run that consumed the reader as the
// moment the last segment became durable. A short last batch meets
// io.EOF while it is still being read, before its analysis, so the
// Read that reported io.EOF cannot stand for its Flush.
func (r *segReader) finish() {
	r.boundary = append(r.boundary[:r.served()], int64(time.Since(r.base)))
}

// latencies returns, for every read chunk, the time from the Read to the
// return of the Flush that made its batch durable, weighted by bytes.
func (r *segReader) latencies() []sample {
	out := make([]sample, 0, len(r.reads))
	for _, rd := range r.reads {
		if rd.seg+1 < len(r.boundary) {
			out = append(out, sample{v: float64(r.boundary[rd.seg+1]-rd.at) / 1e6, w: float64(rd.bytes)})
		}
	}
	return out
}

type streamSpec struct {
	repeatShare float64
	concurrency int
	// maxRate is the records per second the pre-rendered input allows
	// for; a system that outruns it ends the window early, at the end of
	// the input.
	maxRate float64
}

func (s streamSpec) options() []sequence.Option {
	if s.concurrency > 1 {
		return []sequence.Option{sequence.WithConcurrency(s.concurrency)}
	}
	return nil
}

// warmOpen is the stream and serve set-up: open an empty database in
// dir, learn the warm-up file in four batches, close, and reopen, so
// the timed window starts from a restarted process's state.
func warmOpen(dir, warmPath string, warmN int, opts ...sequence.Option) (*sequence.RTG, error) {
	rtg, err := sequence.Open(dir, opts...)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(warmPath)
	if err != nil {
		return nil, err
	}
	res, err := rtg.Run(f, sequence.StreamOptions{BatchSize: warmBatch(warmN)})
	f.Close()
	if err == nil && res.Messages != warmN {
		err = fmt.Errorf("warm-up processed %d of %d records", res.Messages, warmN)
	}
	if err != nil {
		rtg.Close()
		return nil, err
	}
	if err := rtg.Close(); err != nil {
		return nil, err
	}
	return sequence.Open(dir, opts...)
}

func warmBatch(warmN int) int { return max(1, warmN/4) }

// runStream is stream_fresh, stream_repeat and stream_par: a JSON-lines
// stream through RTG.Run on a warmed file-backed database, closed loop.
func runStream(e *env, spec streamSpec) error {
	genStart := time.Now()
	c := newCorpus(streamWorld, e.cfg.seed, profile{repeatShare: spec.repeatShare})
	warmN := e.scaled(warmRecords)
	total := max(1, int(e.window().Seconds()*spec.maxRate*e.cfg.scale))
	warmPath, mainPath := filepath.Join(e.dir, "warm.jsonl"), filepath.Join(e.dir, "main.jsonl")
	if _, err := c.writeJSONL(warmPath, warmN, warmN); err != nil {
		return err
	}
	ends, err := c.writeJSONL(mainPath, total, batchSize)
	if err != nil {
		return err
	}
	e.set("gen.corpus_s", time.Since(genStart).Seconds())
	e.out.CorpusSHA = c.sha()

	var rtg *sequence.RTG
	var dbDir string
	err = e.setup(func(dir string) (err error) {
		dbDir = dir
		rtg, err = warmOpen(dir, warmPath, warmN, spec.options()...)
		return err
	}, func() error { return rtg.Close() })
	if err != nil {
		return err
	}
	defer func() { rtg.Close() }()

	sr, err := newSegReader(mainPath, ends)
	if err != nil {
		return err
	}
	defer sr.f.Close()
	var live liveCounts
	before := rtg.Snapshot()
	w := beginWindow()
	sr.deadline = w.start.Add(e.window())
	if err := runLive(e.tr, rtg, sr, &live); err != nil {
		return err
	}
	sr.finish()
	sent := min(sr.served()*batchSize, total)
	elapsed := w.end(e, sent)
	after := rtg.Snapshot()

	e.out.Attempted = int64(sent)
	e.set("msgs_per_s", float64(sent)/elapsed.Seconds())
	e.latency(sr.latencies())
	e.checkResult(live.res, sent)

	if e.tr != nil {
		if err := e.liveReads(rtg); err != nil {
			return err
		}
	}
	if err := rtg.Close(); err != nil {
		return err
	}
	ids, err := e.verifyDB(dbDir, warmN+sent, c.samples, spec.options()...)
	if err != nil {
		return err
	}
	e.counts(sent, live.res, ids)
	if e.tr == nil {
		return nil
	}

	sh, err := newShadow(filepath.Join(e.dir, "shadow"), false, false, e.tr)
	if err != nil {
		return err
	}
	defer sh.close()
	if err := e.warmShadow(sh, warmPath, warmN); err != nil {
		return err
	}
	if err := sh.feedFile(mainPath, splitBatches(sent, batchSize)); err != nil {
		return err
	}
	e.sameIDs(ids, sh.patternIDs())
	live.fromTrace(e.tr)
	e.layerMetrics(sh.cost, sh.fs, live, delta(before, after))
	e.set("ingest.malformed", float64(after.IngestDecodeErrors-before.IngestDecodeErrors))
	return nil
}

// runLive feeds a JSON-lines stream to rtg. Untraced it is RTG.Run, the
// shipped path. Traced it is engine.RunContext's loop re-composed from
// public calls, with a boundary span around each.
func runLive(tr *tracer, rtg *sequence.RTG, in io.Reader, live *liveCounts) error {
	if tr == nil {
		res, err := rtg.Run(in, sequence.StreamOptions{})
		live.add(res)
		return err
	}
	rd := ingest.NewReader(in, ingest.Options{Metrics: rtg.Metrics()})
	root := tr.begin("window", 0, 0)
	defer tr.end(root)
	for k := 1; ; k++ {
		id := tr.begin("ingest", root, k)
		recs, err := rd.NextBatch()
		tr.end(id)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		id = tr.begin("analyze", root, k)
		res, err := rtg.AnalyzeByService(recs, time.Now())
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("flush", root, k)
		err = rtg.Flush()
		tr.end(id)
		if err != nil {
			return err
		}
		live.add(res)
	}
}

// checkResult checks a run's BatchResult against what was sent.
func (e *env) checkResult(res sequence.BatchResult, sent int) {
	e.check("messages_equal_sent", res.Messages == sent, "processed %d, sent %d", res.Messages, sent)
	e.check("matched_plus_unmatched", res.Matched+res.Unmatched == res.Messages,
		"matched %d + unmatched %d != messages %d", res.Matched, res.Unmatched, res.Messages)
}

// adhocMaxRate is the records per second adhoc_cold's pre-rendered files
// allow for (see streamSpec.maxRate).
const adhocMaxRate = 120000

// adhocInput is one pre-rendered file of adhoc_cold.
type adhocInput struct {
	path    string
	ends    []int64
	samples []sampled
}

// adhocRun is one ad-hoc run over one file: open an empty database in
// dir, mine the file, export patterndb XML beside it, close. k is the
// run's batch id in the trace.
func adhocRun(tr *tracer, k int, dir string, in adhocInput, m *sequence.Metrics) (res sequence.BatchResult, lat []sample, exportMs float64, err error) {
	id := tr.begin("open", 0, k)
	rtg, err := sequence.Open(dir, sequence.WithMetrics(m))
	tr.end(id)
	if err != nil {
		return res, nil, 0, err
	}
	defer rtg.Close()
	sr, err := newSegReader(in.path, in.ends)
	if err != nil {
		return res, nil, 0, err
	}
	defer sr.f.Close()
	var live liveCounts
	if err := runLive(tr, rtg, sr, &live); err != nil {
		return live.res, nil, 0, err
	}
	sr.finish()
	id = tr.begin("export", 0, k)
	t0 := time.Now()
	err = exportFile(rtg, dir+".xml")
	exportMs = float64(time.Since(t0)) / 1e6
	tr.end(id)
	if err != nil {
		return live.res, nil, 0, err
	}
	id = tr.begin("close", 0, k)
	err = rtg.Close()
	tr.end(id)
	return live.res, sr.latencies(), exportMs, err
}

// runAdhoc is adhoc_cold: open an empty file-backed database, mine one
// file of records it has never seen, export patterndb XML, close; over
// and over, each file from a world of its own.
func runAdhoc(e *env) error {
	genStart := time.Now()
	fileN := e.scaled(batchSize)
	files := max(1, int(e.window().Seconds()*adhocMaxRate*e.cfg.scale)/fileN)
	sum := sha256.New() // over the SHA-256 of every file, in order
	render := func(name string, world int64, n int) (adhocInput, error) {
		c := newCorpus(world, e.cfg.seed, profile{})
		ends, err := c.writeJSONL(filepath.Join(e.dir, name), n, n)
		sum.Write(c.sum.Sum(nil))
		return adhocInput{filepath.Join(e.dir, name), ends, c.samples}, err
	}
	warm, err := render("warm.jsonl", streamWorld, max(1, fileN/4))
	if err != nil {
		return err
	}
	inputs := make([]adhocInput, files)
	for i := range inputs {
		if inputs[i], err = render("file"+strconv.Itoa(i)+".jsonl", streamWorld+1+int64(i), fileN); err != nil {
			return err
		}
	}
	e.set("gen.corpus_s", time.Since(genStart).Seconds())
	e.out.CorpusSHA = hex.EncodeToString(sum.Sum(nil))

	// Set-up is one whole ad-hoc run on the small file: it warms the
	// runtime the way a first file would.
	err = e.setup(func(dir string) error {
		_, _, _, err := adhocRun(nil, 0, dir, warm, sequence.NewMetrics())
		return err
	}, func() error { return nil })
	if err != nil {
		return err
	}

	// Every run of the window reports into one registry, so the live
	// operation counts are one snapshot, as on the other workloads.
	metrics := sequence.NewMetrics()
	var live liveCounts
	var lat []sample
	var exportMs []float64
	var dirs []string
	w := beginWindow()
	for deadline := w.start.Add(e.window()); len(dirs) < files && time.Now().Before(deadline); {
		k := len(dirs)
		dir := filepath.Join(e.dir, "adhoc"+strconv.Itoa(k))
		res, l, ms, err := adhocRun(e.tr, k+1, dir, inputs[k], metrics)
		if err != nil {
			return err
		}
		e.checkResult(res, fileN)
		live.add(res)
		lat, exportMs, dirs = append(lat, l...), append(exportMs, ms), append(dirs, dir)
	}
	sent := len(dirs) * fileN
	elapsed := w.end(e, sent)
	after := metrics.Snapshot()
	e.out.Attempted = int64(sent)
	e.set("msgs_per_s", float64(sent)/elapsed.Seconds())
	e.latency(lat)

	var sh *shadow
	if e.tr != nil {
		if sh, err = newShadow(filepath.Join(e.dir, "shadow"), false, false, e.tr); err != nil {
			return err
		}
		defer sh.close()
	}
	var all, shadowIDs []string
	for i, dir := range dirs {
		ids, err := e.verifyDB(dir, fileN, inputs[i].samples)
		if err != nil {
			return err
		}
		all = append(all, ids...)
		if sh == nil {
			continue
		}
		if err := sh.feedFile(inputs[i].path, []int{fileN}); err != nil {
			return err
		}
		shadowIDs = append(shadowIDs, sh.patternIDs()...)
		// The next file meets an empty database again.
		reopen, err := sh.restart(filepath.Join(e.dir, "shadow"+strconv.Itoa(i)))
		if err != nil {
			return err
		}
		e.set("store.reopen_ms", float64(reopen)/1e6)
	}
	e.counts(sent, live.res, all)
	if sh == nil {
		return nil
	}
	e.sameIDs(all, shadowIDs)
	rtg, err := sequence.Open(dirs[0])
	if err != nil {
		return err
	}
	defer rtg.Close()
	if err := e.liveReads(rtg); err != nil {
		return err
	}
	live.fromTrace(e.tr)
	live.windowNs = int64(elapsed)
	e.layerMetrics(sh.cost, sh.fs, live, delta(sequence.MetricsSnapshot{}, after))
	e.set("export.patterndb_ms", median(exportMs))
	return nil
}

// exportFile writes the database's patterns as syslog-ng patterndb XML.
func exportFile(rtg *sequence.RTG, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if err := rtg.Export(w, sequence.FormatPatternDB, sequence.ExportOptions{}); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
