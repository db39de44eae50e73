package sequence_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	sequence "repro"
	"repro/internal/archive"
)

var now = time.Date(2021, 9, 1, 12, 0, 0, 0, time.UTC)

func sshdRecords(n int) []sequence.Record {
	recs := make([]sequence.Record, n)
	for i := range recs {
		recs[i] = sequence.Record{
			Service: "sshd",
			Message: fmt.Sprintf("Failed password for root from 10.0.%d.%d port %d ssh2",
				i%200, (i*13)%250+1, 1024+i),
		}
	}
	return recs
}

func TestQuickstartFlow(t *testing.T) {
	rtg, err := sequence.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer rtg.Close()

	res, err := rtg.AnalyzeByService(sshdRecords(10), now)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewPatterns == 0 {
		t.Fatal("no patterns discovered")
	}

	p, vals, ok := rtg.Parse("sshd", "Failed password for root from 192.168.7.9 port 22022 ssh2")
	if !ok {
		t.Fatal("Parse should match")
	}
	if want := "Failed password for root from %srcip% port %srcport% ssh2"; p.Text() != want {
		t.Errorf("pattern = %q, want %q", p.Text(), want)
	}
	if vals["srcip"] != "192.168.7.9" || vals["srcport"] != "22022" {
		t.Errorf("extracted values = %v", vals)
	}
}

func TestPersistenceAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	rtg, err := sequence.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rtg.AnalyzeByService(sshdRecords(10), now); err != nil {
		t.Fatal(err)
	}
	if err := rtg.Close(); err != nil {
		t.Fatal(err)
	}

	rtg2, err := sequence.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rtg2.Close()
	if rtg2.PatternCount() == 0 {
		t.Fatal("patterns must persist across Open")
	}
	res, err := rtg2.AnalyzeByService(sshdRecords(10), now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != 10 {
		t.Fatalf("reopened instance should match everything: %+v", res)
	}
}

func TestRunStream(t *testing.T) {
	var in bytes.Buffer
	for _, r := range sshdRecords(30) {
		fmt.Fprintf(&in, "{\"service\":%q,\"message\":%q}\n", r.Service, r.Message)
	}
	rtg, err := sequence.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer rtg.Close()
	batches := 0
	total, err := rtg.Run(&in, sequence.StreamOptions{
		BatchSize: 10,
		Report:    func(sequence.BatchResult) { batches++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.Messages != 30 || batches != 3 {
		t.Fatalf("total=%+v batches=%d", total, batches)
	}
}

func TestExportFormats(t *testing.T) {
	rtg, err := sequence.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer rtg.Close()
	if _, err := rtg.AnalyzeByService(sshdRecords(10), now); err != nil {
		t.Fatal(err)
	}
	for f, marker := range map[sequence.Format]string{
		sequence.FormatPatternDB: "<patterndb",
		sequence.FormatYAML:      "services:",
		sequence.FormatGrok:      "grok {",
	} {
		var buf bytes.Buffer
		if err := rtg.Export(&buf, f, sequence.ExportOptions{}); err != nil {
			t.Fatalf("Export(%s): %v", f, err)
		}
		if !strings.Contains(buf.String(), marker) {
			t.Errorf("Export(%s) missing %q:\n%s", f, marker, buf.String())
		}
	}
}

func TestScanAndReconstruct(t *testing.T) {
	msg := "job 42 finished on 10.0.0.1 in 1.5 s"
	toks := sequence.Scan(msg)
	if len(toks) == 0 {
		t.Fatal("no tokens")
	}
	if got := sequence.Reconstruct(toks); got != msg {
		t.Errorf("Reconstruct = %q, want %q", got, msg)
	}
}

func TestPatternFromText(t *testing.T) {
	p, err := sequence.PatternFromText("%action% from %srcip% port %srcport%", "sshd")
	if err != nil {
		t.Fatal(err)
	}
	if p.Service != "sshd" || len(p.ID) != 40 {
		t.Fatalf("pattern = %+v", p)
	}
}

func TestPurge(t *testing.T) {
	rtg, err := sequence.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer rtg.Close()
	if _, err := rtg.AnalyzeByService(sshdRecords(10), now); err != nil {
		t.Fatal(err)
	}
	n, err := rtg.Purge(1000, now.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || rtg.PatternCount() != 0 {
		t.Fatalf("purged=%d remaining=%d", n, rtg.PatternCount())
	}
}

func TestClassicAnalyzePublicAPI(t *testing.T) {
	rtg, err := sequence.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer rtg.Close()
	res, err := rtg.Analyze(sshdRecords(20), now)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 20 || res.NewPatterns == 0 {
		t.Fatalf("classic analyze: %+v", res)
	}
	// Classic mode stores under the mixed pseudo-service.
	for _, p := range rtg.Patterns() {
		if p.Service != "mixed" {
			t.Fatalf("classic pattern under service %q", p.Service)
		}
	}
}

func TestRunPlainText(t *testing.T) {
	in := strings.NewReader("job 1 done\njob 2 done\njob 3 done\n")
	rtg, err := sequence.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer rtg.Close()
	total, err := rtg.Run(in, sequence.StreamOptions{
		BatchSize: 10, PlainText: true, DefaultService: "batchjob",
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.Messages != 3 {
		t.Fatalf("total: %+v", total)
	}
	if svcs := rtg.Services(); len(svcs) != 1 || svcs[0] != "batchjob" {
		t.Fatalf("services: %v", svcs)
	}
}

func TestCompactPublicAPI(t *testing.T) {
	dir := t.TempDir()
	rtg, err := sequence.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rtg.AnalyzeByService(sshdRecords(10), now); err != nil {
		t.Fatal(err)
	}
	if err := rtg.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := rtg.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := sequence.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.PatternCount() == 0 {
		t.Fatal("compacted database lost patterns")
	}
}

func TestOpenFunctionalOptions(t *testing.T) {
	// Later options override earlier ones, and WithConfig is the bridge
	// for code that still builds a Config struct.
	m := sequence.NewMetrics()
	rtg, err := sequence.Open("",
		sequence.WithConfig(sequence.Config{Concurrency: 1, SaveThreshold: 99}),
		sequence.WithSaveThreshold(0),
		sequence.WithConcurrency(4),
		sequence.WithMetrics(m),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rtg.Close()
	if rtg.Metrics() != m {
		t.Fatal("WithMetrics must install the shared registry")
	}
	if _, err := rtg.AnalyzeByService(sshdRecords(10), now); err != nil {
		t.Fatal(err)
	}
	// SaveThreshold was reset to 0 by the later option, so the mined
	// pattern must have been kept.
	if rtg.PatternCount() == 0 {
		t.Fatal("later WithSaveThreshold(0) should have overridden the WithConfig threshold")
	}
	if m.Snapshot().EngineMessages != 10 {
		t.Fatalf("shared metrics did not observe the batch: %+v", m.Snapshot())
	}
}

// TestLegacyV1Database is the compatibility contract for databases
// written before the binary journal. testdata/legacy-v1 was written by
// the last build that could still write v1 JSON-lines journals and left
// as a crash leaves it: a snapshot, two sharded journals holding
// upserts, touches and deletes, and a pre-sharding journal.wal. Opened
// here, it must hold exactly the patterns that build read back from it
// (testdata/legacy-v1.golden.json), and every journal written after the
// open must be v2 frames.
func TestLegacyV1Database(t *testing.T) {
	dir := t.TempDir()
	entries, err := os.ReadDir("testdata/legacy-v1")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join("testdata/legacy-v1", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	type golden struct {
		ID       string   `json:"id"`
		Service  string   `json:"service"`
		Count    int64    `json:"count"`
		Examples []string `json:"examples"`
	}
	raw, err := os.ReadFile("testdata/legacy-v1.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []golden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	rtg, err := sequence.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rtg.Close()
	var got []golden
	for _, p := range rtg.Patterns() {
		got = append(got, golden{p.ID, p.Service, p.Count, p.Examples})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy database reads back\n%+v\nwant\n%+v", got, want)
	}

	if _, err := rtg.AnalyzeByService(sshdRecords(10), now); err != nil {
		t.Fatal(err)
	}
	if err := rtg.Flush(); err != nil {
		t.Fatal(err)
	}
	journals, err := filepath.Glob(filepath.Join(dir, "journal*"))
	if err != nil {
		t.Fatal(err)
	}
	written := 0
	for _, name := range journals {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			continue
		}
		written++
		if b[0] != 0x00 {
			t.Fatalf("%s does not start with the v2 frame marker: %q", filepath.Base(name), b[:min(16, len(b))])
		}
	}
	if written == 0 {
		t.Fatal("no journal written after the batch")
	}
}

func TestServices(t *testing.T) {
	rtg, err := sequence.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer rtg.Close()
	recs := []sequence.Record{
		{Service: "a", Message: "x started 1"},
		{Service: "a", Message: "x started 2"},
		{Service: "a", Message: "x started 3"},
		{Service: "b", Message: "y stopped 1"},
		{Service: "b", Message: "y stopped 2"},
		{Service: "b", Message: "y stopped 3"},
	}
	if _, err := rtg.AnalyzeByService(recs, now); err != nil {
		t.Fatal(err)
	}
	got := rtg.Services()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Services = %v", got)
	}
}

// TestRunPublishesArchiveEachBatch: Run takes the same per-batch barrier
// as the daemon, so every record archived by a returned Run is sealed
// and readable by a second process while the instance stays open. A
// barrier that flushed only the pattern store would leave them in
// memory, and a crash would keep the store's counts of batches whose
// archive records are gone.
func TestRunPublishesArchiveEachBatch(t *testing.T) {
	dir := t.TempDir()
	rtg, err := sequence.Open(dir, sequence.WithArchive())
	if err != nil {
		t.Fatal(err)
	}
	defer rtg.Close()
	var in bytes.Buffer
	for _, r := range sshdRecords(300) {
		fmt.Fprintf(&in, "{\"service\":%q,\"message\":%q}\n", r.Service, r.Message)
	}
	stream := in.Bytes()
	matched := 0
	for range 2 {
		res, err := rtg.Run(bytes.NewReader(stream), sequence.StreamOptions{BatchSize: 100})
		if err != nil {
			t.Fatal(err)
		}
		matched += res.Matched
	}
	if matched != 500 { // the first batch mines, the other five match
		t.Fatalf("matched %d records, want 500", matched)
	}
	arc, err := archive.Open(filepath.Join(dir, "archive"), archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer arc.Close()
	got, err := arc.Query(archive.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != matched {
		t.Fatalf("a second open of the archive reads %d records after Run, want all %d matched", len(got), matched)
	}
}

// TestAnalyzeHonoursMaxTrieNodes: the classic Analyze runs the same
// per-partition pass as AnalyzeByService, so the paper's trie bound
// (limitation 5) and its gauges hold for it too.
func TestAnalyzeHonoursMaxTrieNodes(t *testing.T) {
	recs := make([]sequence.Record, 2000)
	for i := range recs {
		recs[i] = sequence.Record{Service: "svc", Message: fmt.Sprintf("event%d raised by unit%d in zone%d", i, i*7, i*13)}
	}
	for name, analyze := range map[string]func(*sequence.RTG) (sequence.BatchResult, error){
		"Analyze":          func(r *sequence.RTG) (sequence.BatchResult, error) { return r.Analyze(recs, now) },
		"AnalyzeByService": func(r *sequence.RTG) (sequence.BatchResult, error) { return r.AnalyzeByService(recs, now) },
	} {
		rtg, err := sequence.Open("", sequence.WithMaxTrieNodes(100))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := analyze(rtg); err != nil {
			t.Fatal(err)
		}
		snap := rtg.Snapshot()
		if snap.EngineEarlyHarvests < 1 || snap.EngineTrieNodesPeak <= 0 {
			t.Errorf("%s: %d early harvests, trie peak %d; want >= 1 and > 0", name, snap.EngineEarlyHarvests, snap.EngineTrieNodesPeak)
		}
		rtg.Close()
	}
}
