package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	sequence "repro"
)

const (
	batchSize = sequence.DefaultBatchSize
	// warmRecords is how many records of the workload's own profile the
	// database learns in set-up, in four batches so that the last three
	// mostly match and the archive starts non-empty.
	warmRecords = 100000
	// setupRepeats is how often an untraced run sets up; setup_s is the
	// median.
	setupRepeats = 3
	// tracedShare is the part of -seconds the traced live window takes;
	// the shadow pipeline over the same records takes the rest.
	tracedShare = 0.4
	maskSalt    = "bench"
)

// metricDef names one reported metric. The two tables below are the
// benchmark's vocabulary; BENCHMARK.json lists the same names.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"msgs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"allocs_per_msg", "count"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"server.parse_syslog_ns_per_msg", "ns"},
	{"server.queue_wait_p50_ms", "ms"},
	{"server.batch_records_p50", "count"},
	{"server.accepted", "count"},
	{"server.shed", "count"},
	{"server.parse_errors", "count"},
	{"server.post_p50_ms", "ms"},
	{"ingest.decode_ns_per_msg", "ns"},
	{"ingest.malformed", "count"},
	{"mask.ns_per_msg", "ns"},
	{"mask.changed_share", "share"},
	{"token.scan_ns_per_msg", "ns"},
	{"parser.match_ns_per_msg", "ns"},
	{"parser.hit_share", "share"},
	{"parser.exact_hit_share", "share"},
	{"parser.patterns", "count"},
	{"analyzer.add_ns_per_msg", "ns"},
	{"analyzer.patterns_ms_per_batch", "ms"},
	{"analyzer.unmatched_share", "share"},
	{"analyzer.new_patterns", "count"},
	{"core.analyze_ns_per_msg", "ns"},
	{"core.flush_ns_per_msg", "ns"},
	{"core.busy_share", "share"},
	{"core.loop_self_ns_per_msg", "ns"},
	{"core.residual_ns_per_msg", "ns"},
	{"core.traced_msgs_per_s", "1/s"},
	{"store.apply_batch_ns_per_op", "ns"},
	{"store.flush_ms_per_batch", "ms"},
	{"store.journal_bytes_per_msg", "bytes"},
	{"store.reopen_ms", "ms"},
	{"store.list_ms", "ms"},
	{"archive.append_ns_per_rec", "ns"},
	{"archive.flush_ms_per_batch", "ms"},
	{"archive.blocks", "count"},
	{"archive.stored_bytes_per_msg", "bytes"},
	{"archive.cache_hit_share", "share"},
	{"archive.query_ms", "ms"},
	{"vfs.syncs_per_batch", "count"},
	{"vfs.sync_ms_per_batch", "ms"},
	{"vfs.write_bytes_per_msg", "bytes"},
	{"export.patterndb_ms", "ms"},
	{"gen.corpus_s", "s"},
	{"gen.late_share", "share"},
	{"gen.max_late_ms", "ms"},
}

// workloadDef is one entry of the workload table in main.go.
type workloadDef struct {
	name string
	run  func(*env) error
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	outDir   string
	detail   string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// waterfallRow is one layer's share of the live analyze+flush time:
// the shadow's cost per operation times the live operation count.
type waterfallRow struct {
	Layer   string  `json:"layer"`
	NsPerOp float64 `json:"shadow_ns_per_op"`
	Ops     int64   `json:"live_ops"`
	NsMsg   float64 `json:"ns_per_msg"`
}

// outcome is everything one run of one workload reports. The driver
// reads the first four fields from the last line of standard output;
// the rest goes to the -detail file for the all-workloads report.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	Workload  string           `json:"workload,omitempty"`
	Traced    bool             `json:"traced,omitempty"`
	CorpusSHA string           `json:"corpus_sha256,omitempty"`
	Counts    map[string]int64 `json:"counts,omitempty"`
	Digest    string           `json:"pattern_digest,omitempty"`
	Checks    []checkResult    `json:"checks,omitempty"`
	Waterfall []waterfallRow   `json:"waterfall,omitempty"`
	LiveNsMsg float64          `json:"live_analyze_flush_ns_per_msg,omitempty"`
}

// env is the state of one run of one workload.
type env struct {
	cfg    config
	dir    string  // scratch directory, removed when the run ends
	tr     *tracer // nil on the untraced pass
	values map[string]float64
	out    outcome
}

func (e *env) set(name string, v float64) { e.values[name] = v }

// check records one correctness check; a failed check fails the workload.
func (e *env) check(name string, ok bool, format string, args ...any) {
	c := checkResult{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
		e.out.Failed++
		fmt.Fprintf(os.Stderr, "bench: %s: check %s FAILED: %s\n", e.cfg.workload, name, c.Detail)
	}
	e.out.Checks = append(e.out.Checks, c)
}

// scaled applies -scale to a record count, keeping at least one.
func (e *env) scaled(n int) int { return max(1, int(float64(n)*e.cfg.scale)) }

// window is the length of the live timed window.
func (e *env) window() time.Duration {
	s := e.cfg.seconds
	if e.tr != nil {
		s *= tracedShare
	}
	return time.Duration(s * float64(time.Second))
}

// setup runs build setupRepeats times (once when tracing), timing each,
// and keeps the last; discard tears down the others. setup_s is the
// median, so that work moved into set-up shows with less noise.
func (e *env) setup(build func(dir string) error, discard func() error) error {
	reps := setupRepeats
	if e.tr != nil {
		reps = 1
	}
	var times []float64
	for i := 0; i < reps; i++ {
		dir := filepath.Join(e.dir, "db"+strconv.Itoa(i))
		t0 := time.Now()
		if err := build(dir); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i < reps-1 {
			if err := discard(); err != nil {
				return fmt.Errorf("set-up teardown: %w", err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
	}
	e.set("setup_s", median(times))
	return nil
}

// latency reports the run's latency samples: the gated p50 and p90, and
// on standard output the sample count and the highest percentile that
// has ten samples beyond it.
func (e *env) latency(samples []sample) {
	top := max(topPercentile(len(samples)), 0.50)
	ps := percentiles(samples, 0.50, 0.90, top)
	e.set("latency_p50_ms", ps[0])
	e.set("latency_p90_ms", ps[1])
	if e.tr == nil {
		fmt.Printf("%-22s %-34s %16.4f ms (%d samples; highest percentile with ten beyond it, not gated)\n",
			e.cfg.workload, fmt.Sprintf("latency_p%g_ms", 100*top), ps[2], len(samples))
	}
}

// window is a timed window in progress.
type window struct {
	start   time.Time
	mallocs uint64
}

// beginWindow settles the process and starts the clock.
func beginWindow() window {
	settle()
	return window{mallocs: mallocs(), start: time.Now()}
}

// end stops the clock: it reports the window's memory metrics, with
// records as the divisor of allocs_per_msg, and returns its length.
func (w window) end(e *env, records int) time.Duration {
	elapsed := time.Since(w.start)
	e.set("allocs_per_msg", float64(mallocs()-w.mallocs)/float64(records))
	e.set("peak_rss_mb", peakRSSMB())
	return elapsed
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

func lineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	return sc
}

// splitBatches is the batch sizes a reader with the given batch size
// cuts n records into.
func splitBatches(n, size int) []int {
	var out []int
	for ; n > size; n -= size {
		out = append(out, size)
	}
	return append(out, n)
}

func patternIDs(ps []*sequence.Pattern) []string {
	ids := make([]string, 0, len(ps))
	for _, p := range ps {
		ids = append(ids, p.ID)
	}
	sort.Strings(ids)
	return ids
}

func digest(ids []string) string {
	h := sha256.New()
	for _, id := range ids {
		io.WriteString(h, id)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// medianMs times fn n times and returns the median in milliseconds.
func medianMs(n int, fn func() error) (float64, error) {
	var ms []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms), nil
}

// runOne runs one workload in this process and prints its result.
func runOne(cfg config, def workloadDef) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "run-"+cfg.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{cfg: cfg, dir: dir, values: make(map[string]float64)}
	e.out.Workload, e.out.Traced = cfg.workload, cfg.trace
	e.out.Counts = make(map[string]int64)
	if cfg.trace {
		e.tr = newTracer()
	}
	if err := def.run(e); err != nil {
		return err
	}
	if e.tr != nil {
		if err := e.tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".jsonl")); err != nil {
			return err
		}
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	e.out.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := e.values[d.name]
		e.out.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Printf("%-22s %-34s %16.4f %s\n", cfg.workload, d.name, v, d.unit)
	}
	e.out.Correct = e.out.Failed == 0
	if e.out.Attempted < 1 {
		e.out.Attempted = 1
	}
	fmt.Printf("%-22s %-34s %16.6f share (%d of %d)\n", cfg.workload, "failed_share",
		ratio(float64(e.out.Failed), float64(e.out.Attempted)), e.out.Failed, e.out.Attempted)
	fmt.Printf("%-22s corpus sha256 %s\n", cfg.workload, e.out.CorpusSHA)
	if cfg.detail != "" {
		b, err := json.MarshalIndent(e.out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.detail, b, 0o644); err != nil {
			return err
		}
	}
	last, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{e.out.Correct, e.out.Attempted, e.out.Failed, e.out.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	if !e.out.Correct {
		return errIncorrect
	}
	return nil
}

// settle readies the process for a timed window: the disk writes that
// corpus generation and set-up left pending are flushed, so they do not
// ride on the window's fsyncs, and the heap is collected.
func settle() {
	syscall.Sync()
	runtime.GC()
}
