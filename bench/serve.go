package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	sequence "repro"
	"repro/internal/server"
)

const (
	// hottestService is the service the generator's Zipf skew gives the
	// most traffic; the read workload queries it.
	hottestService = "svc000"
	// tcpRate is serve_tcp's offered load in messages per second: about
	// half of what the masked, archiving daemon sustains on two cores.
	tcpRate = 20000
	// postRecords is the size of one serve_mixed POST body.
	postRecords = 1000
	// mixedMaxRate is the records per second serve_mixed's pre-rendered
	// bodies allow for (see streamSpec.maxRate).
	mixedMaxRate = 55000
	// queryEvery is the reader's polling period. A query reads every
	// block file's header, so its cost grows with the archive; at this
	// period the reader still keeps up at the end of the window.
	queryEvery = 100 * time.Millisecond
	// lateAfter is how far behind its due time a pacing tick may leave
	// before gen.late_share counts it. Latency runs from the due time
	// either way; the share says how bursty the offered load really was.
	lateAfter = 5 * time.Millisecond
	// serveWarmRecords is the daemons' warm-up size (see warmRecords);
	// masking makes learning twice as dear, and set-up runs three times.
	serveWarmRecords = 60000
)

// serveProfile is the traffic of both daemon workloads: every variable
// value fresh, one record in eight carrying seeded PII.
var serveProfile = profile{piiShare: 1.0 / 8}

func serveOptions() []sequence.Option {
	return []sequence.Option{sequence.WithMasking(sequence.MaskConfig{Salt: maskSalt}), sequence.WithArchive()}
}

// batchStamp is when one batch was handed to the miner, analysed and
// made durable.
type batchStamp struct {
	n                         int
	handed, analyzed, flushed time.Time
	ok                        bool
}

// timedMiner is the server.Miner the daemon workloads run behind: the
// RTG itself with a clock read around each call, and a boundary span
// when tracing. The server's one analysis goroutine makes all the
// calls, and the bench reads the stamps only after Run has returned.
type timedMiner struct {
	*sequence.RTG
	tr      *tracer
	root    atomic.Int64 // the window span, parent of the boundary spans
	batches []batchStamp
	live    liveCounts
}

func (m *timedMiner) AnalyzeByServiceContext(ctx context.Context, recs []sequence.Record, now time.Time) (sequence.BatchResult, error) {
	b := batchStamp{n: len(recs), handed: time.Now()}
	id := m.tr.begin("analyze", int(m.root.Load()), len(m.batches)+1)
	res, err := m.RTG.AnalyzeByServiceContext(ctx, recs, now)
	m.tr.end(id)
	b.analyzed, b.ok = time.Now(), err == nil
	m.batches = append(m.batches, b)
	m.live.add(res)
	return res, err
}

func (m *timedMiner) Flush() error {
	id := m.tr.begin("flush", int(m.root.Load()), len(m.batches))
	err := m.RTG.Flush()
	m.tr.end(id)
	if n := len(m.batches); n > 0 {
		m.batches[n-1].flushed = time.Now()
		m.batches[n-1].ok = m.batches[n-1].ok && err == nil
	}
	return err
}

// persisted is the number of records whose batch was analysed and
// flushed without error.
func (m *timedMiner) persisted() int {
	n := 0
	for _, b := range m.batches {
		if b.ok {
			n += b.n
		}
	}
	return n
}

func (m *timedMiner) batchSizes() []int {
	out := make([]int, len(m.batches))
	for i, b := range m.batches {
		out[i] = b.n
	}
	return out
}

// daemon is a warmed, masking, archiving RTG behind a running server.
type daemon struct {
	rtg    *sequence.RTG
	miner  *timedMiner
	srv    *server.Server
	cancel context.CancelFunc
	done   chan error
}

// startDaemon is the daemon set-up: warmOpen, bind the listeners, start
// serving.
func startDaemon(dir, warmPath string, warmN int, tr *tracer, opts server.Options) (*daemon, error) {
	rtg, err := warmOpen(dir, warmPath, warmN, serveOptions()...)
	if err != nil {
		return nil, err
	}
	d := &daemon{rtg: rtg, miner: &timedMiner{RTG: rtg, tr: tr}, done: make(chan error, 1)}
	d.miner.live.masked, d.miner.live.archived = true, true
	opts.Metrics, opts.Archive, opts.Mask = rtg.Metrics(), rtg.Archive(), rtg.Masker()
	if d.srv, err = server.New(d.miner, opts); err != nil {
		rtg.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	go func() { d.done <- d.srv.Run(ctx) }()
	return d, nil
}

// stop cancels the server and waits for it to drain: every accepted
// record has been analysed and flushed when it returns.
func (d *daemon) stop() error {
	d.cancel()
	return <-d.done
}

// listenerTotals sums the per-listener server counters of a snapshot.
func listenerTotals(s sequence.MetricsSnapshot) (accepted, shed, parseErrs int64) {
	for _, v := range s.ServerAccepted {
		accepted += v
	}
	for _, v := range s.ServerShed {
		shed += v
	}
	for _, v := range s.ServerParseErrors {
		parseErrs += v
	}
	return accepted, shed, parseErrs
}

// serveResult is what the two daemon workloads share after the window.
type serveResult struct {
	c       *corpus
	warm    string
	warmN   int
	d       *daemon
	dbDir   string
	sent    int
	elapsed time.Duration
	before  sequence.MetricsSnapshot
}

// finishServe reports the common metrics of a daemon workload, checks
// the data directory, and (when tracing) runs the shadow over the
// records the daemon saw. feed hands the shadow the sent records in the
// live run's batch sizes.
func (e *env) finishServe(r serveResult, feed func(*shadow, []int) error) error {
	m := r.d.miner
	after := r.d.rtg.Snapshot()
	accepted, shed, parseErrs := listenerTotals(after)
	a0, s0, p0 := listenerTotals(r.before)
	accepted, shed, parseErrs = accepted-a0, shed-s0, parseErrs-p0
	persisted := m.persisted()
	e.set("msgs_per_s", float64(persisted)/r.elapsed.Seconds())
	e.set("server.accepted", float64(accepted))
	e.set("server.shed", float64(shed))
	e.set("server.parse_errors", float64(parseErrs))
	var sizes []float64
	for _, b := range m.batches {
		sizes = append(sizes, float64(b.n))
	}
	e.set("server.batch_records_p50", median(sizes))

	e.check("accepted_equal_sent", accepted == int64(r.sent), "accepted %d of %d sent (shed %d, parse errors %d)", accepted, r.sent, shed, parseErrs)
	e.check("accepted_equal_persisted", accepted == int64(persisted), "accepted %d, persisted %d", accepted, persisted)
	e.out.Failed += int64(r.sent - persisted)
	e.checkResult(m.live.res, persisted)
	arcRecords := after.ArchiveRecords - r.before.ArchiveRecords
	e.check("archive_records_equal_matched", arcRecords == int64(m.live.res.Matched), "archived %d records, matched %d", arcRecords, m.live.res.Matched)

	if e.tr != nil {
		if err := e.liveReads(r.d.rtg); err != nil {
			return err
		}
	}
	if err := r.d.rtg.Close(); err != nil {
		return err
	}
	if err := e.scanLeaks(r.dbDir, r.c.piiValues()); err != nil {
		return err
	}
	ids, err := e.verifyDB(r.dbDir, r.warmN+persisted, r.c.samples, serveOptions()...)
	if err != nil {
		return err
	}
	e.counts(r.sent, m.live.res, ids)
	e.out.Counts["batches"] = int64(len(m.batches))
	if e.tr == nil {
		return nil
	}

	sh, err := newShadow(filepath.Join(e.dir, "shadow"), true, true, e.tr)
	if err != nil {
		return err
	}
	defer sh.close()
	if err := e.warmShadow(sh, r.warm, r.warmN); err != nil {
		return err
	}
	if err := feed(sh, m.batchSizes()); err != nil {
		return err
	}
	e.sameIDs(ids, sh.patternIDs())
	m.live.fromTrace(e.tr)
	e.layerMetrics(sh.cost, sh.fs, m.live, delta(r.before, after))
	return nil
}

// prepareServe generates the warm-up file of a daemon workload.
func (e *env) prepareServe() (c *corpus, warmPath string, warmN int, err error) {
	c = newCorpus(streamWorld, e.cfg.seed, serveProfile)
	warmN = e.scaled(serveWarmRecords)
	warmPath = filepath.Join(e.dir, "warm.jsonl")
	_, err = c.writeJSONL(warmPath, warmN, warmN)
	return c, warmPath, warmN, err
}

// runServeTCP is serve_tcp: RFC 5424 frames over one TCP connection at a
// fixed rate, open loop, each record timed from when it was due to the
// return of the Flush that made its batch durable.
func runServeTCP(e *env) error {
	genStart := time.Now()
	c, warmPath, warmN, err := e.prepareServe()
	if err != nil {
		return err
	}
	// Frames leave in pacing ticks of perTick frames; 1 ms ticks at the
	// full rate.
	rate := tcpRate * e.cfg.scale
	perTick := max(1, int(rate/1000))
	tickEvery := time.Duration(float64(perTick) / rate * float64(time.Second))
	ticks := max(1, int(e.window()/tickEvery))
	sent := ticks * perTick
	data, cuts := c.render(sent, perTick, appendFrame)
	e.set("gen.corpus_s", time.Since(genStart).Seconds())
	e.out.CorpusSHA = c.sha()

	var d *daemon
	var conn net.Conn
	var dbDir string
	err = e.setup(func(dir string) (err error) {
		dbDir = dir
		if d, err = startDaemon(dir, warmPath, warmN, e.tr, server.Options{SyslogTCP: "127.0.0.1:0"}); err != nil {
			return err
		}
		conn, err = net.Dial("tcp", d.srv.SyslogTCPAddr())
		return err
	}, func() error {
		conn.Close()
		if err := d.stop(); err != nil {
			return err
		}
		return d.rtg.Close()
	})
	if err != nil {
		return err
	}
	defer conn.Close()

	root := e.tr.begin("window", 0, 0)
	d.miner.root.Store(int64(root))
	before := d.rtg.Snapshot()
	w := beginWindow()
	start := w.start
	var lateTicks int
	var maxLate time.Duration
	for tick := 0; tick < ticks; {
		elapsed := time.Since(start)
		due := min(int(elapsed/tickEvery)+1, ticks)
		if due <= tick {
			time.Sleep(time.Duration(tick)*tickEvery - elapsed)
			continue
		}
		for j := tick; j < due; j++ {
			late := elapsed - time.Duration(j)*tickEvery
			if late > lateAfter {
				lateTicks++
			}
			maxLate = max(maxLate, late)
		}
		if _, err := conn.Write(data[cuts[tick]:cuts[due]]); err != nil {
			return fmt.Errorf("send frames: %w", err)
		}
		tick = due
	}
	// Every frame is on the wire; wait until the listener has accounted
	// for each before asking the daemon to drain.
	a0, s0, p0 := listenerTotals(before)
	for waited := time.Now(); time.Since(waited) < 30*time.Second; time.Sleep(2 * time.Millisecond) {
		if a, s, p := listenerTotals(d.rtg.Snapshot()); a+s+p-a0-s0-p0 >= int64(sent) {
			break
		}
	}
	conn.Close()
	if err := d.stop(); err != nil {
		return err
	}
	elapsed := w.end(e, sent)
	e.tr.end(root)

	e.out.Attempted = int64(sent)
	e.set("gen.late_share", float64(lateTicks)/float64(ticks))
	e.set("gen.max_late_ms", float64(maxLate)/1e6)
	lat, wait := dueLatencies(d.miner.batches, start, perTick, tickEvery)
	e.latency(lat)
	e.set("server.queue_wait_p50_ms", percentiles(wait, 0.50)[0])

	return e.finishServe(serveResult{c, warmPath, warmN, d, dbDir, sent, elapsed, before},
		func(sh *shadow, batches []int) error { return sh.feedFrames(data, batches) })
}

// dueLatencies is the open-loop accounting of serve_tcp. The k-th record
// handed to the miner is the k-th record sent: one connection keeps
// order, and nothing was shed or rejected (or the accepted_equal_sent
// check fails the run). Record k was due with its pacing tick, at start
// + (k / perTick) x tickEvery, however late the generator really sent
// it, so a stall is charged to every record it held up. lat runs from
// there to the return of the Flush that made the record's batch durable,
// wait to the moment the batch was handed to the miner; the records of
// one tick in one batch share a sample.
func dueLatencies(batches []batchStamp, start time.Time, perTick int, tickEvery time.Duration) (lat, wait []sample) {
	idx := 0
	for _, b := range batches {
		for end := idx + b.n; idx < end; {
			tick := idx / perTick
			next := min((tick+1)*perTick, end)
			due := start.Add(time.Duration(tick) * tickEvery)
			if b.ok {
				lat = append(lat, sample{float64(b.flushed.Sub(due)) / 1e6, float64(next - idx)})
				wait = append(wait, sample{float64(b.handed.Sub(due)) / 1e6, float64(next - idx)})
			}
			idx = next
		}
	}
	return lat, wait
}

// runServeMixed is serve_mixed: one HTTP client posting NDJSON bodies
// back to back (closed loop) while one reader polls the archive on a
// fixed schedule with at most one request in flight.
func runServeMixed(e *env) error {
	genStart := time.Now()
	c, warmPath, warmN, err := e.prepareServe()
	if err != nil {
		return err
	}
	perBody := e.scaled(postRecords)
	bodies := max(1, int(e.window().Seconds()*mixedMaxRate*e.cfg.scale)/perBody)
	data, cuts := c.render(bodies*perBody, perBody, appendJSONL)
	e.set("gen.corpus_s", time.Since(genStart).Seconds())
	e.out.CorpusSHA = c.sha()

	var d *daemon
	var dbDir string
	err = e.setup(func(dir string) (err error) {
		dbDir = dir
		// A long push timeout makes overload back-pressure on the one
		// client instead of shed records.
		d, err = startDaemon(dir, warmPath, warmN, e.tr, server.Options{HTTP: "127.0.0.1:0", PushTimeout: 10 * time.Second})
		return err
	}, func() error {
		if err := d.stop(); err != nil {
			return err
		}
		return d.rtg.Close()
	})
	if err != nil {
		return err
	}
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	base := "http://" + d.srv.HTTPAddr()

	root := e.tr.begin("window", 0, 0)
	d.miner.root.Store(int64(root))
	before := d.rtg.Snapshot()
	w := beginWindow()
	start, deadline := w.start, w.start.Add(e.window())

	var queryLat []sample
	var queries, badQueries int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		url := base + "/api/v1/query?service=" + hottestService + "&limit=100"
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * queryEvery)
			if !due.Before(deadline) {
				return
			}
			time.Sleep(time.Until(due))
			id := e.tr.begin("query", root, k+1)
			resp, err := client.Get(url)
			ok := err == nil
			if ok {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				ok = err == nil && resp.StatusCode == http.StatusOK
			}
			e.tr.end(id)
			queries++
			if ok {
				queryLat = append(queryLat, sample{float64(time.Since(due)) / 1e6, 1})
			} else {
				badQueries++
			}
			// One request in flight: the ticks that passed meanwhile
			// are skipped, as a polling dashboard would.
			k = max(k, int(time.Since(start)/queryEvery))
		}
	}()

	var postMs []float64
	var posted int
	var refused int64
	for posted < bodies && time.Now().Before(deadline) {
		t0 := time.Now()
		id := e.tr.begin("post", root, posted+1)
		resp, err := client.Post(base+"/api/v1/ingest", "application/x-ndjson", bytes.NewReader(data[cuts[posted]:cuts[posted+1]]))
		if err != nil {
			return fmt.Errorf("post body %d: %w", posted, err)
		}
		var reply struct{ Accepted, Malformed, Shed int64 }
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		e.tr.end(id)
		if err != nil {
			return fmt.Errorf("post body %d: reply: %w", posted, err)
		}
		postMs = append(postMs, float64(time.Since(t0))/1e6)
		refused += reply.Malformed + reply.Shed
		posted++
	}
	wg.Wait()
	if err := d.stop(); err != nil {
		return err
	}
	sent := posted * perBody
	elapsed := w.end(e, sent)
	e.tr.end(root)
	e.out.Attempted = int64(sent + queries)
	e.out.Failed += int64(badQueries)
	e.check("no_record_refused", refused == 0, "%d records were shed or rejected as malformed", refused)
	e.check("queries_answered", badQueries == 0 && queries > 0, "%d of %d queries failed", badQueries, queries)
	e.latency(queryLat)
	e.set("server.post_p50_ms", median(postMs))
	e.out.Counts["queries"] = int64(queries)

	return e.finishServe(serveResult{c, warmPath, warmN, d, dbDir, sent, elapsed, before},
		func(sh *shadow, batches []int) error {
			return sh.feedJSONL(lineScanner(bytes.NewReader(data[:cuts[posted]])), batches)
		})
}
