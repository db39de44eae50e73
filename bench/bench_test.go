package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/ingest"
)

// TestWorkloadsEndToEnd runs every workload through both passes at one
// hundredth of the size, with every correctness check on and no bound
// applied: the shadow pipeline must mine the live system's patterns, the
// counts must add up, and the masked data directories must hold no PII.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 1, seconds: 0.5, trace: trace, scale: 0.01, outDir: t.TempDir()}
			cfg.detail = filepath.Join(cfg.outDir, "detail.json")
			if err := runOne(cfg, w); err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			raw, err := os.ReadFile(cfg.detail)
			if err != nil {
				t.Fatal(err)
			}
			var out outcome
			if err := json.Unmarshal(raw, &out); err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 || len(out.Checks) == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d checks=%d", w.name, trace, out.Correct, out.Failed, out.Attempted, len(out.Checks))
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := out.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", w.name, trace, d.name, m, ok)
				}
				// The driver refuses an end-to-end metric that reads 0.
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl")); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
				sum := 0.0
				for _, r := range out.Waterfall {
					sum += r.NsMsg
				}
				if math.Abs(sum-out.LiveNsMsg) > 1e-6*math.Max(1, out.LiveNsMsg) {
					t.Errorf("%s: waterfall rows sum to %v ns/msg, live analyze+flush is %v", w.name, sum, out.LiveNsMsg)
				}
			}
		}
	}
}

// TestBenchmarkFileAgrees holds BENCHMARK.json to the metric and
// workload tables the bench prints from.
func TestBenchmarkFileAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the bench %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, bench %q", i, bf.Workloads[i].Name, w.name)
		}
	}
	for _, tc := range []struct {
		what string
		file []metric
		defs []metricDef
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, perLayer}} {
		if len(tc.file) != len(tc.defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the bench %d", tc.what, len(tc.file), len(tc.defs))
		}
		for i, d := range tc.defs {
			if tc.file[i].Name != d.name || tc.file[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %+v, bench %+v", tc.what, i, tc.file[i], d)
			}
		}
	}
}

func TestTopPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 0.50}, {99, 0.50}, {100, 0.90}, {999, 0.90}, {1000, 0.99}, {10000, 0.999}} {
		if got := topPercentile(tc.n); got != tc.want {
			t.Errorf("topPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestPercentilesWeighted(t *testing.T) {
	// 1 stands for 8 records, 10 for 1, 100 for 1: the median record and
	// the 80th percentile record saw 1, the 90th saw 10.
	samples := []sample{{100, 1}, {1, 8}, {10, 1}}
	got := percentiles(samples, 0.5, 0.8, 0.9, 1)
	for i, want := range []float64{1, 1, 10, 100} {
		if got[i] != want {
			t.Errorf("percentile %d = %v, want %v", i, got[i], want)
		}
	}
	if got := percentiles(nil, 0.5); got[0] != 0 {
		t.Errorf("percentile of nothing = %v", got[0])
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	got, ok := spread(xs)
	if want := (8.25 - 2.75) / 5.5; !ok || math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v (%v), want %v", got, ok, want)
	}
	if _, ok := spread([]float64{1, 2, 3}); ok {
		t.Error("spread of three values should not be defined")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "window", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "analyze", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "flush", Start: 30, End: 60},  // overlaps analyze: counted once
		{ID: 4, Parent: 1, Name: "flush", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "scan", Start: 10, End: 25},
		{ID: 6, Name: "shadow.batch", Start: 0, End: 50},
		{ID: 7, Parent: 6, Name: "shadow.scan", Start: 0, End: 50, Ops: 3, BusyNs: 20},
	}
	got := selfTimes(spans)
	for name, want := range map[string]int64{
		"window":       100 - 50 - 10, // children cover [10,60) and [90,100)
		"analyze":      30 - 15,
		"flush":        30 + 30,
		"scan":         15,
		"shadow.batch": 50 - 20, // an aggregated stage covers its busy time
	} {
		if got[name] != want {
			t.Errorf("self time of %s = %d, want %d", name, got[name], want)
		}
	}
}

func TestDueLatencies(t *testing.T) {
	start := time.Now()
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	// Two records per 10 ms tick; record k is due at (k/2) x 10 ms no
	// matter when it was really sent. Batch one takes records 0-2, batch
	// two records 3-4, a failed batch record 5.
	batches := []batchStamp{
		{n: 3, handed: at(25), flushed: at(40), ok: true},
		{n: 2, handed: at(50), flushed: at(70), ok: true},
		{n: 1, handed: at(80), flushed: at(90), ok: false},
	}
	lat, wait := dueLatencies(batches, start, 2, 10*time.Millisecond)
	wantLat := []sample{{40, 2}, {30, 1}, {60, 1}, {50, 1}}
	wantWait := []sample{{25, 2}, {15, 1}, {40, 1}, {30, 1}}
	if len(lat) != len(wantLat) {
		t.Fatalf("got %d samples %v, want %d", len(lat), lat, len(wantLat))
	}
	for i := range wantLat {
		if lat[i] != wantLat[i] || wait[i] != wantWait[i] {
			t.Errorf("sample %d: latency %v wait %v, want %v %v", i, lat[i], wait[i], wantLat[i], wantWait[i])
		}
	}
}

func TestCorpusDeterminism(t *testing.T) {
	render := func(seed int64) (sha string, c *corpus) {
		c = newCorpus(streamWorld, seed, profile{repeatShare: 0.5, piiShare: 0.25})
		if _, err := c.writeJSONL(filepath.Join(t.TempDir(), "c.jsonl"), 3000, 1000); err != nil {
			t.Fatal(err)
		}
		c.render(500, 10, appendFrame)
		return c.sha(), c
	}
	a, ca := render(7)
	b, _ := render(7)
	other, _ := render(8)
	if a != b {
		t.Errorf("same seed, different corpora: %s and %s", a, b)
	}
	if a == other {
		t.Errorf("seeds 7 and 8 gave the same corpus %s", a)
	}
	if want := (3500 + sampleEvery - 1) / sampleEvery; len(ca.samples) != want {
		t.Errorf("%d sampled records, want %d", len(ca.samples), want)
	}
}

// TestRenderRoundTrips holds the hand-rolled renderers to the decoders
// of the system under test.
func TestRenderRoundTrips(t *testing.T) {
	c := newCorpus(streamWorld, 3, profile{piiShare: 0.5})
	for i := 0; i < 200; i++ {
		rec := c.next()
		if i == 0 {
			rec.Message += ` with "quotes" and a \ backslash` // forces the encoding/json path
		}
		line := appendJSONL(nil, rec)
		got, err := ingest.Decode(line[:len(line)-1], "unknown")
		if err != nil || got != rec {
			t.Fatalf("JSON line %q decodes to %+v (%v), want %+v", line, got, err, rec)
		}
	}
	card := c.cards[0]
	sum := 0
	for i := 0; i < len(card); i++ {
		v := int(card[len(card)-1-i] - '0')
		if i%2 == 1 {
			if v *= 2; v > 9 {
				v -= 9
			}
		}
		sum += v
	}
	if len(card) != 16 || sum%10 != 0 {
		t.Errorf("card %s is not a 16-digit Luhn number", card)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rate, latency float64) string {
		run := func(f float64) outcome {
			return outcome{Correct: true, Metrics: map[string]metricValue{
				"setup_s": {1, "s"}, "msgs_per_s": {rate * f, "1/s"}, "latency_p50_ms": {latency * f, "ms"},
				"latency_p90_ms": {2 * latency, "ms"}, "allocs_per_msg": {7, "count"}, "peak_rss_mb": {100, "MB"},
			}}
		}
		res := resultFile{Schema: "seqbench/2", Seed: 1, Scale: 1, Seconds: 10, Workloads: []workloadResult{
			{Name: "stream_fresh", Runs: []outcome{run(0.99), run(1), run(1.01), run(1), run(1.005)}},
		}}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 100000, 500)
	if err := compareFiles(base, write("same.json", 101000, 495)); err != nil {
		t.Errorf("equal runs: %v", err)
	}
	if err := compareFiles(base, write("faster.json", 150000, 300)); err != nil {
		t.Errorf("an improvement is not a regression: %v", err)
	}
	if err := compareFiles(base, write("slow.json", 70000, 500)); err == nil {
		t.Error("30% less throughput passed")
	}
	if err := compareFiles(base, write("late.json", 100000, 700)); err == nil {
		t.Error("40% more latency passed")
	}
}
