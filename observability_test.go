package sequence_test

// Tests for the observability layer and the context-aware API: metric
// reconciliation against BatchResult totals, Prometheus exposition,
// cancellation without goroutine leaks, typed errors, and the atomic
// parser refresh of MergeFrom.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	sequence "repro"
	"repro/internal/obs"
)

func TestSnapshotReconcilesWithBatchResults(t *testing.T) {
	rtg, err := sequence.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer rtg.Close()

	var total sequence.BatchResult
	const batches = 3
	for i := 0; i < batches; i++ {
		res, err := rtg.AnalyzeByService(sshdRecords(20), now)
		if err != nil {
			t.Fatal(err)
		}
		total.Messages += res.Messages
		total.Matched += res.Matched
		total.Unmatched += res.Unmatched
		total.NewPatterns += res.NewPatterns
	}

	s := rtg.Snapshot()
	if s.EngineBatches != batches {
		t.Errorf("EngineBatches = %d, want %d", s.EngineBatches, batches)
	}
	if s.EngineMessages != int64(total.Messages) {
		t.Errorf("EngineMessages = %d, want %d", s.EngineMessages, total.Messages)
	}
	if s.EngineParseHits != int64(total.Matched) {
		t.Errorf("EngineParseHits = %d, want %d", s.EngineParseHits, total.Matched)
	}
	if s.EngineUnmatched != int64(total.Unmatched) {
		t.Errorf("EngineUnmatched = %d, want %d", s.EngineUnmatched, total.Unmatched)
	}
	if s.EnginePatternsMined != int64(total.NewPatterns) {
		t.Errorf("EnginePatternsMined = %d, want %d", s.EnginePatternsMined, total.NewPatterns)
	}
	// Every engine message is one parser attempt (the parse-first pass).
	if s.ParserMatchAttempts != s.EngineMessages {
		t.Errorf("ParserMatchAttempts = %d, want %d", s.ParserMatchAttempts, s.EngineMessages)
	}
	if s.ParserMatchMisses != s.EngineUnmatched {
		t.Errorf("ParserMatchMisses = %d, want %d", s.ParserMatchMisses, s.EngineUnmatched)
	}
	if s.StorePatterns != int64(rtg.PatternCount()) {
		t.Errorf("StorePatterns gauge = %d, want %d", s.StorePatterns, rtg.PatternCount())
	}
	if s.ParserPatterns != int64(rtg.PatternCount()) {
		t.Errorf("ParserPatterns gauge = %d, want %d", s.ParserPatterns, rtg.PatternCount())
	}
	if s.EngineBatchDuration.Count != batches {
		t.Errorf("EngineBatchDuration.Count = %d, want %d", s.EngineBatchDuration.Count, batches)
	}
	if got := s.ParseHitRatio(); got <= 0 || got >= 1 {
		t.Errorf("ParseHitRatio = %g, want in (0,1) for a warm+cold mix", got)
	}
}

func TestRunReconcilesIngestMetrics(t *testing.T) {
	var in bytes.Buffer
	for _, r := range sshdRecords(25) {
		fmt.Fprintf(&in, "{\"service\":%q,\"message\":%q}\n", r.Service, r.Message)
	}
	in.WriteString("this is not json\n\n") // one malformed line, one empty line

	rtg, err := sequence.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer rtg.Close()
	total, err := rtg.Run(&in, sequence.StreamOptions{BatchSize: 10})
	if err != nil {
		t.Fatal(err)
	}

	s := rtg.Snapshot()
	if s.IngestRecords != int64(total.Messages) {
		t.Errorf("IngestRecords = %d, want %d", s.IngestRecords, total.Messages)
	}
	if s.IngestRecords != s.EngineMessages {
		t.Errorf("IngestRecords = %d but EngineMessages = %d", s.IngestRecords, s.EngineMessages)
	}
	if s.IngestDecodeErrors != 1 {
		t.Errorf("IngestDecodeErrors = %d, want 1", s.IngestDecodeErrors)
	}
	if s.IngestDecodeFallback != 1 { // the malformed line alone left the plain wire shape
		t.Errorf("IngestDecodeFallback = %d, want 1", s.IngestDecodeFallback)
	}
	if s.IngestLines != 27 { // 25 records + 1 malformed + 1 empty
		t.Errorf("IngestLines = %d, want 27", s.IngestLines)
	}
	if s.IngestBatches != 3 || s.EngineBatches != 3 {
		t.Errorf("batches: ingest=%d engine=%d, want 3", s.IngestBatches, s.EngineBatches)
	}
	if s.IngestBatchFill.Count != 3 {
		t.Errorf("IngestBatchFill.Count = %d, want 3", s.IngestBatchFill.Count)
	}
}

func TestWriteMetricsPrometheusExposition(t *testing.T) {
	rtg, err := sequence.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer rtg.Close()
	if _, err := rtg.AnalyzeByService(sshdRecords(10), now); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := rtg.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	// Every pipeline stage must be covered.
	for _, name := range []string{
		obs.MetricIngestLines,
		obs.MetricIngestDecodeFallback,
		obs.MetricEngineMessages,
		obs.MetricEngineParseHits,
		obs.MetricEngineBatchDuration + "_bucket",
		obs.MetricParserMatchAttempts,
		obs.MetricStoreUpserts,
		obs.MetricStorePatterns,
	} {
		if !strings.Contains(out, "\n"+name+" ") && !strings.Contains(out, "\n"+name+"{") {
			t.Errorf("exposition missing metric %s", name)
		}
		if !strings.Contains(out, "# HELP "+strings.TrimSuffix(name, "_bucket")+" ") {
			t.Errorf("exposition missing HELP for %s", name)
		}
	}
	// Valid text exposition: every sample line is "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	// The expvar dump must agree with the snapshot.
	if !strings.Contains(rtg.Metrics().String(), `"engine_messages":10`) {
		t.Errorf("expvar dump missing engine_messages: %s", rtg.Metrics().String())
	}
}

// infiniteStream writes JSON records to w until w errors (pipe closed).
func infiniteStream(w io.Writer) {
	for i := 0; ; i++ {
		rec := fmt.Sprintf("{\"service\":\"svc%d\",\"message\":\"event %d finished in %d ms\"}\n",
			i%7, i%911, i%37)
		if _, err := io.WriteString(w, rec); err != nil {
			return
		}
	}
}

func TestRunContextCancellation(t *testing.T) {
	runtime.GC()
	before := runtime.NumGoroutine()

	rtg, err := sequence.Open("", sequence.WithConcurrency(4))
	if err != nil {
		t.Fatal(err)
	}
	defer rtg.Close()

	pr, pw := io.Pipe()
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		infiniteStream(pw)
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	batches := 0
	total, err := rtg.RunContext(ctx, pr, sequence.StreamOptions{
		BatchSize: 200,
		Report: func(sequence.BatchResult) {
			batches++
			if batches == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext returned %v, want context.Canceled", err)
	}
	// Cancelled during batch 2's report: at most one more batch may have
	// been in flight.
	if batches > 3 {
		t.Errorf("RunContext processed %d batches after cancellation, want <= 3", batches)
	}
	if total.Messages == 0 {
		t.Error("RunContext should report the work done before cancellation")
	}

	pr.Close()
	pw.Close()
	<-writerDone

	// No goroutine may outlive RunContext (worker pool, semaphore).
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestAnalyzeByServiceContextPreCancelled(t *testing.T) {
	rtg, err := sequence.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer rtg.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := rtg.AnalyzeByServiceContext(ctx, sshdRecords(10), now)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Messages != 0 {
		t.Errorf("pre-cancelled context still processed %d messages", res.Messages)
	}
}

func TestSelfReport(t *testing.T) {
	var in bytes.Buffer
	for _, r := range sshdRecords(30) {
		in.Write([]byte(fmt.Sprintf("{\"service\":%q,\"message\":%q}\n", r.Service, r.Message)))
	}
	rtg, err := sequence.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer rtg.Close()
	var snaps []sequence.MetricsSnapshot
	if _, err := rtg.Run(&in, sequence.StreamOptions{
		BatchSize:       10,
		SelfReportEvery: 1,
		SelfReport:      func(s sequence.MetricsSnapshot) { snaps = append(snaps, s) },
	}); err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 {
		t.Fatalf("self-report fired %d times, want 3", len(snaps))
	}
	if last := snaps[len(snaps)-1]; last.EngineMessages != 30 {
		t.Errorf("final self-report saw %d messages, want 30", last.EngineMessages)
	}
}

func TestTypedErrClosed(t *testing.T) {
	rtg, err := sequence.Open("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rtg.AnalyzeByService(sshdRecords(10), now); err != nil {
		t.Fatal(err)
	}
	if err := rtg.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rtg.Purge(1, now); !errors.Is(err, sequence.ErrClosed) {
		t.Errorf("Purge after Close = %v, want ErrClosed", err)
	}
	if _, err := rtg.AnalyzeByService(sshdRecords(10), now); !errors.Is(err, sequence.ErrClosed) {
		t.Errorf("AnalyzeByService after Close = %v, want ErrClosed", err)
	}
}

func TestTypedErrBadRecord(t *testing.T) {
	rtg, err := sequence.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer rtg.Close()
	in := strings.NewReader(`{"service":"a","message":"ok line 1"}` + "\n" + `{"service":"a" BROKEN` + "\n")
	_, err = rtg.Run(in, sequence.StreamOptions{BatchSize: 10, Strict: true})
	if !errors.Is(err, sequence.ErrBadRecord) {
		t.Fatalf("strict Run = %v, want ErrBadRecord", err)
	}
	var bad *sequence.BadRecordError
	if !errors.As(err, &bad) {
		t.Fatalf("error %v does not unwrap to *BadRecordError", err)
	}
	if bad.Line != 2 || !strings.Contains(bad.Raw, "BROKEN") {
		t.Errorf("bad record context = line %d raw %q, want line 2 with raw text", bad.Line, bad.Raw)
	}

	// Lenient mode keeps going and only counts.
	rtg2, err := sequence.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer rtg2.Close()
	in2 := strings.NewReader(`{"service":"a","message":"ok line 1"}` + "\n" + `nope` + "\n")
	if _, err := rtg2.Run(in2, sequence.StreamOptions{BatchSize: 10}); err != nil {
		t.Fatalf("lenient Run = %v, want nil", err)
	}
	if got := rtg2.Snapshot().IngestDecodeErrors; got != 1 {
		t.Errorf("IngestDecodeErrors = %d, want 1", got)
	}
}

// TestMergeFromAtomicParserRefresh hammers Parse while MergeFrom swaps
// the pattern set. Before the fix the parser was refreshed pattern by
// pattern after the store merge, so a concurrent Parse could observe a
// half-merged set; run with -race this test also proves the swap is
// data-race free.
func TestMergeFromAtomicParserRefresh(t *testing.T) {
	target, err := sequence.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	if _, err := target.AnalyzeByService(sshdRecords(10), now); err != nil {
		t.Fatal(err)
	}
	probe := "Failed password for root from 172.31.9.9 port 31337 ssh2"
	if _, _, ok := target.Parse("sshd", probe); !ok {
		t.Fatal("probe message must match before the merges")
	}

	// Each merge round folds in a pair of fresh patterns under services
	// "pairA" and "pairB". The old per-pattern refresh added them in
	// service order, so there was a window where pairA's round-r pattern
	// was visible but pairB's was not — a half-merged set. The checkers
	// assert the pair becomes visible together, and that the pre-existing
	// probe pattern never disappears.
	pairMsg := func(svc string, round, j int) string {
		return fmt.Sprintf("%s round %d event %d finished in %d ms", svc, round, j, 10+j)
	}
	var round atomic.Int64
	round.Store(-1)

	stop := make(chan struct{})
	var misses, halfMerged atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, ok := target.Parse("sshd", probe); !ok {
					misses.Add(1)
				}
				r := int(round.Load())
				if r < 0 {
					continue
				}
				// Visibility of the pair must be all-or-nothing: if round
				// r's pairA pattern is matchable, its pairB pattern (added
				// later in the old per-pattern refresh) must be too.
				if _, _, okA := target.Parse("pairA", pairMsg("pairA", r, 9)); okA {
					if _, _, okB := target.Parse("pairB", pairMsg("pairB", r, 9)); !okB {
						halfMerged.Add(1)
					}
				}
			}
		}()
	}

	for i := 0; i < 25; i++ {
		other, err := sequence.Open("")
		if err != nil {
			t.Fatal(err)
		}
		var recs []sequence.Record
		for _, svc := range []string{"pairA", "pairB"} {
			for j := 0; j < 5; j++ {
				recs = append(recs, sequence.Record{Service: svc, Message: pairMsg(svc, i, j)})
			}
		}
		if _, err := other.AnalyzeByService(recs, now); err != nil {
			t.Fatal(err)
		}
		round.Store(int64(i))
		if err := target.MergeFrom(other); err != nil {
			t.Fatal(err)
		}
		other.Close()
	}
	close(stop)
	wg.Wait()

	if n := misses.Load(); n != 0 {
		t.Errorf("Parse missed %d times during MergeFrom — known patterns vanished mid-merge", n)
	}
	if n := halfMerged.Load(); n != 0 {
		t.Errorf("observed %d half-merged pattern sets during MergeFrom", n)
	}
	if _, _, ok := target.Parse("sshd", probe); !ok {
		t.Error("probe message must still match after the merges")
	}
}

// TestSnapshotConcurrentWithMergeFrom hammers Snapshot while MergeFrom
// rewrites the pattern set underneath it. Run under -race this pins the
// contract that the read-only observability surface needs no external
// locking against instance mutation; the value checks assert snapshots
// are never torn into negative or regressing pattern counts.
func TestSnapshotConcurrentWithMergeFrom(t *testing.T) {
	target, err := sequence.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	if _, err := target.AnalyzeByService(sshdRecords(10), now); err != nil {
		t.Fatal(err)
	}
	floor := target.Snapshot().StorePatterns

	stop := make(chan struct{})
	var torn atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := floor
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := target.Snapshot()
				// MergeFrom only adds patterns; a snapshot below the
				// floor or below a previous read is a torn view.
				if s.StorePatterns < last {
					torn.Add(1)
				}
				last = s.StorePatterns
			}
		}()
	}

	for i := 0; i < 10; i++ {
		other, err := sequence.Open("")
		if err != nil {
			t.Fatal(err)
		}
		recs := make([]sequence.Record, 0, 10)
		for j := 0; j < 10; j++ {
			recs = append(recs, sequence.Record{
				Service: fmt.Sprintf("merge-%d", i),
				Message: fmt.Sprintf("round %d event %d finished in %d ms", i, j, 10+j),
			})
		}
		if _, err := other.AnalyzeByService(recs, now); err != nil {
			t.Fatal(err)
		}
		if err := target.MergeFrom(other); err != nil {
			t.Fatal(err)
		}
		if err := other.Close(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if n := torn.Load(); n != 0 {
		t.Errorf("%d torn snapshots observed a regressing pattern count", n)
	}
	if got := target.Snapshot().StorePatterns; got < floor {
		t.Errorf("final pattern count %d below pre-merge floor %d", got, floor)
	}
}
