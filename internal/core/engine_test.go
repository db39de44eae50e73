package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/analyzer"
	"repro/internal/ingest"
	"repro/internal/store"
)

var now = time.Date(2021, 9, 1, 12, 0, 0, 0, time.UTC)

func newTestEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return NewEngine(st, cfg)
}

func sshdBatch(n int, seed int64) []ingest.Record {
	rng := rand.New(rand.NewSource(seed))
	users := []string{"alice", "bob", "carol"}
	recs := make([]ingest.Record, n)
	for i := range recs {
		recs[i] = ingest.Record{
			Service: "sshd",
			Message: fmt.Sprintf("Failed password for %s from 10.0.%d.%d port %d ssh2",
				users[rng.Intn(len(users))], rng.Intn(256), rng.Intn(256), 1024+rng.Intn(60000)),
		}
	}
	return recs
}

func TestAnalyzeByServiceDiscovers(t *testing.T) {
	e := newTestEngine(t, Config{})
	res, err := e.AnalyzeByService(sshdBatch(50, 1), now)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 50 || res.Unmatched != 50 || res.Matched != 0 {
		t.Fatalf("first batch: %+v", res)
	}
	if res.NewPatterns == 0 {
		t.Fatal("no patterns discovered")
	}
	if res.Services != 1 {
		t.Fatalf("services = %d", res.Services)
	}
}

func TestParseFirstShortCircuit(t *testing.T) {
	e := newTestEngine(t, Config{})
	if _, err := e.AnalyzeByService(sshdBatch(50, 1), now); err != nil {
		t.Fatal(err)
	}
	// Second batch of the same shape must be matched, not re-analysed.
	res, err := e.AnalyzeByService(sshdBatch(50, 2), now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != 50 {
		t.Fatalf("second batch should be fully matched: %+v", res)
	}
	if res.NewPatterns != 0 {
		t.Fatalf("no new patterns expected: %+v", res)
	}
	// Statistics accumulate in the store.
	var total int64
	for _, p := range e.Store().All() {
		total += p.Count
		if !p.LastMatched.Equal(now.Add(time.Hour)) {
			t.Errorf("LastMatched not advanced: %v", p.LastMatched)
		}
	}
	if total != 100 {
		t.Fatalf("total count = %d, want 100", total)
	}
}

func TestServicePartitioning(t *testing.T) {
	e := newTestEngine(t, Config{})
	var recs []ingest.Record
	// The same message text in two services must yield two patterns —
	// patterns never cross services.
	for i := 0; i < 3; i++ {
		m := fmt.Sprintf("job %d done", i)
		recs = append(recs, ingest.Record{Service: "a", Message: m}, ingest.Record{Service: "b", Message: m})
	}
	res, err := e.AnalyzeByService(recs, now)
	if err != nil {
		t.Fatal(err)
	}
	if res.Services != 2 {
		t.Fatalf("services = %d", res.Services)
	}
	svcs := e.Store().Services()
	if len(svcs) != 2 || svcs[0] != "a" || svcs[1] != "b" {
		t.Fatalf("stored services = %v", svcs)
	}
}

func TestAnalyzeClassicMixesServices(t *testing.T) {
	e := newTestEngine(t, Config{})
	recs := sshdBatch(30, 3)
	for i := range recs {
		if i%2 == 0 {
			recs[i].Service = "other"
		}
	}
	res, err := e.Analyze(recs, now)
	if err != nil {
		t.Fatal(err)
	}
	if res.Services != 2 {
		t.Fatalf("services seen = %d", res.Services)
	}
	for _, p := range e.Store().All() {
		if p.Service != "mixed" {
			t.Fatalf("classic Analyze should store under the mixed pseudo-service, got %q", p.Service)
		}
	}
}

func TestSaveThreshold(t *testing.T) {
	e := newTestEngine(t, Config{SaveThreshold: 3})
	recs := []ingest.Record{
		{Service: "s", Message: "rare event happened"},
		{Service: "s", Message: "common event 1 fired"},
		{Service: "s", Message: "common event 2 fired"},
		{Service: "s", Message: "common event 3 fired"},
	}
	res, err := e.AnalyzeByService(recs, now)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewPatterns != 1 {
		t.Fatalf("want 1 saved pattern (threshold drops the singleton), got %d", res.NewPatterns)
	}
	all := e.Store().All()
	if len(all) != 1 || all[0].Count != 3 {
		t.Fatalf("stored: %+v", all)
	}
}

func TestMaxTrieNodesHarvestsEarly(t *testing.T) {
	// A cycle of identical messages: once the trie-size bound forces an
	// early harvest, the rest of the batch should match the freshly saved
	// patterns instead of being re-analysed.
	var recs []ingest.Record
	for i := 0; i < 200; i++ {
		recs = append(recs, ingest.Record{
			Service: "app",
			Message: fmt.Sprintf("module m%d initialised successfully", i%4),
		})
	}
	bounded := newTestEngine(t, Config{MaxTrieNodes: 10})
	res, err := bounded.AnalyzeByService(recs, now)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewPatterns == 0 {
		t.Fatal("no patterns despite early harvesting")
	}
	if res.Matched == 0 {
		t.Fatal("early harvest should let later messages match in-batch")
	}

	// Without the bound the whole batch is analysed in one trie.
	unbounded := newTestEngine(t, Config{})
	res2, err := unbounded.AnalyzeByService(recs, now)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Matched != 0 {
		t.Fatalf("unbounded engine should analyse everything: %+v", res2)
	}
}

func TestParseExtracts(t *testing.T) {
	e := newTestEngine(t, Config{})
	if _, err := e.AnalyzeByService(sshdBatch(50, 5), now); err != nil {
		t.Fatal(err)
	}
	p, vals, ok := e.Parse("sshd", "Failed password for alice from 10.0.1.2 port 2222 ssh2")
	if !ok {
		t.Fatal("Parse should match a learned pattern")
	}
	if p.Service != "sshd" {
		t.Errorf("service = %q", p.Service)
	}
	if vals["srcip"] != "10.0.1.2" {
		t.Errorf("extracted srcip = %q (all: %v)", vals["srcip"], vals)
	}
	if _, _, ok := e.Parse("sshd", "completely different message"); ok {
		t.Error("unexpected match")
	}
}

func TestPersistenceAcrossEngines(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(st, Config{})
	if _, err := e.AnalyzeByService(sshdBatch(50, 6), now); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	e2 := NewEngine(st2, Config{})
	if e2.PatternCount() == 0 {
		t.Fatal("patterns must persist between executions")
	}
	res, err := e2.AnalyzeByService(sshdBatch(50, 7), now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != 50 {
		t.Fatalf("restarted engine should match everything: %+v", res)
	}
}

func TestConcurrencyMatchesSequential(t *testing.T) {
	mkRecs := func() []ingest.Record {
		var recs []ingest.Record
		for s := 0; s < 8; s++ {
			for i := 0; i < 40; i++ {
				recs = append(recs, ingest.Record{
					Service: fmt.Sprintf("svc%d", s),
					Message: fmt.Sprintf("unit %d state changed to %d", i%5, i),
				})
			}
		}
		return recs
	}
	seq := newTestEngine(t, Config{Concurrency: 1})
	par := newTestEngine(t, Config{Concurrency: 4})
	rs, err := seq.AnalyzeByService(mkRecs(), now)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := par.AnalyzeByService(mkRecs(), now)
	if err != nil {
		t.Fatal(err)
	}
	if rs.NewPatterns != rp.NewPatterns || rs.Matched != rp.Matched {
		t.Fatalf("sequential %+v vs parallel %+v", rs, rp)
	}
	a, b := seq.Store().All(), par.Store().All()
	if len(a) != len(b) {
		t.Fatalf("pattern sets differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Count != b[i].Count {
			t.Fatalf("pattern %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRunBatchLoop(t *testing.T) {
	var buf bytes.Buffer
	for _, r := range sshdBatch(120, 8) {
		buf.Write(ingest.Marshal(r))
	}
	e := newTestEngine(t, Config{})
	rd := ingest.NewReader(&buf, ingest.Options{BatchSize: 50})
	batches := 0
	total, err := e.RunContext(context.Background(), rd, func(BatchResult) { batches++ })
	if err != nil {
		t.Fatal(err)
	}
	if batches != 3 { // 50 + 50 + 20
		t.Fatalf("batches = %d, want 3", batches)
	}
	if total.Messages != 120 {
		t.Fatalf("total = %+v", total)
	}
	if total.Matched == 0 {
		t.Fatal("later batches should match patterns from earlier ones")
	}
}

func TestMultilineEndToEnd(t *testing.T) {
	e := newTestEngine(t, Config{})
	recs := []ingest.Record{
		{Service: "java", Message: "FATAL worker 1 crashed\n  at a.b(C.java:1)\n  at d.e(F.java:2)"},
		{Service: "java", Message: "FATAL worker 7 crashed\n  at x.y(Z.java:9)"},
		{Service: "java", Message: "FATAL worker 9 crashed\n  stack elided"},
	}
	res, err := e.AnalyzeByService(recs, now)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewPatterns != 1 {
		for _, p := range e.Store().All() {
			t.Logf("pattern: %q", p.Text())
		}
		t.Fatalf("want 1 multiline pattern, got %d", res.NewPatterns)
	}
	p, _, ok := e.Parse("java", "FATAL worker 42 crashed\n  somewhere completely different")
	if !ok || !p.Multiline {
		t.Fatal("multiline pattern should match new multi-line messages regardless of tail")
	}
}

func BenchmarkAnalyzeByService100k(b *testing.B) {
	cfg := analyzer.DefaultConfig()
	recs := make([]ingest.Record, 0, 100000)
	rng := rand.New(rand.NewSource(9))
	for s := 0; s < 50; s++ {
		svc := fmt.Sprintf("svc%02d", s)
		for i := 0; i < 2000; i++ {
			recs = append(recs, ingest.Record{
				Service: svc,
				Message: fmt.Sprintf("request %d from 10.%d.%d.%d took %d ms",
					rng.Intn(1000), rng.Intn(256), rng.Intn(256), rng.Intn(256), rng.Intn(500)),
			})
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, _ := store.Open("")
		e := NewEngine(st, Config{Analyzer: cfg})
		b.StartTimer()
		if _, err := e.AnalyzeByService(recs, now); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		st.Close()
		b.StartTimer()
	}
}
