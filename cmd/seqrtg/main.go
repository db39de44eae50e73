// Command seqrtg is the Sequence-RTG production tool: it mines patterns
// from a stream of log messages on standard input, keeps them in a
// persistent pattern database, and exports them for syslog-ng, YAML or
// Logstash pipelines.
//
// In the deployment the paper describes (§IV, Fig 6), syslog-ng starts
// seqrtg as a child process and pipes the messages that its pattern
// database could not match into seqrtg's standard input as JSON lines:
//
//	{"service": "sshd", "message": "Failed password for root from 10.0.0.1 port 22 ssh2"}
//
// Usage:
//
//	seqrtg analyze   -db DIR [-batch N] [-classic] [-plain -service S] [-archive] [-mask] [-mask-rules FILE]
//	seqrtg serve     -db DIR [-syslog-udp ADDR] [-syslog-tcp ADDR] [-http ADDR] [-queue-depth N] [-archive] [-mask] [-mask-rules FILE]
//	seqrtg parse     -db DIR [-plain -service S]
//	seqrtg export    -db DIR -format patterndb|yaml|grok [-min-count N] [-max-complexity F] [-service S]
//	seqrtg stats     -db DIR
//	seqrtg purge     -db DIR -min-count N [-older-than DAYS]
//
// serve runs the network ingestion daemon instead of reading stdin:
// RFC 5424/3164 syslog over UDP and TCP (both RFC 6587 framings) and
// NDJSON over HTTP, with the mined patterns queryable at
// GET /api/v1/patterns and exportable at GET /api/v1/export.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	sequence "repro"
	"repro/internal/server"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "parse":
		err = cmdParse(os.Args[2:])
	case "export":
		err = cmdExport(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "purge":
		err = cmdPurge(os.Args[2:])
	case "merge":
		err = cmdMerge(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "seqrtg: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "seqrtg:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: seqrtg <command> [flags]

commands:
  analyze   mine patterns from the JSON-lines stream on stdin
  serve     run the network ingestion daemon (syslog UDP/TCP + HTTP API)
  parse     match stdin messages against the pattern database
  export    write stored patterns as patterndb XML, YAML or Grok
  stats     summarise the pattern database
  purge     delete weak patterns (save threshold)
  merge     fold other instances' databases into one (horizontal scaling)`)
}

func openDB(db string, opts ...sequence.Option) (*sequence.RTG, error) {
	rtg, err := sequence.Open(db, opts...)
	if err != nil {
		return nil, fmt.Errorf("open pattern database: %w", err)
	}
	return rtg, nil
}

// serveObservability exposes the instance on addr: Prometheus text
// exposition on /metrics, the expvar JSON dump on /debug/vars, and the
// standard pprof profiling endpoints under /debug/pprof/ — the
// always-on observability a continuously running miner needs.
func serveObservability(addr string, rtg *sequence.RTG) {
	expvar.Publish("seqrtg", rtg.Metrics())
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := rtg.WriteMetrics(w); err != nil {
			fmt.Fprintln(os.Stderr, "seqrtg: write metrics:", err)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			fmt.Fprintln(os.Stderr, "seqrtg: metrics server:", err)
		}
	}()
}

// maskFlags registers the masking flags shared by analyze and serve.
type maskFlags struct {
	on    *bool
	rules *string
	salt  *string
}

func newMaskFlags(fs *flag.FlagSet) maskFlags {
	return maskFlags{
		on:    fs.Bool("mask", false, "mask PII (emails, IPs, secrets, card numbers) before analysis and storage"),
		rules: fs.String("mask-rules", "", "masking rules file (one '<action> <regexp>' per line; implies -mask)"),
		salt:  fs.String("mask-salt", "", "salt for the hash masking action (set per site so digests are not reversible offline)"),
	}
}

// options builds the WithMasking option. The rules file loads
// leniently: a malformed line is warned about on stderr and counted
// into seqrtg_mask_errors_total, but must not take ingest down.
func (mf maskFlags) options() ([]sequence.Option, error) {
	if !*mf.on && *mf.rules == "" {
		return nil, nil
	}
	mc := sequence.MaskConfig{Salt: *mf.salt}
	if *mf.rules != "" {
		f, err := os.Open(*mf.rules)
		if err != nil {
			return nil, fmt.Errorf("mask rules: %w", err)
		}
		rules, errs := sequence.ParseMaskRulesLenient(f)
		f.Close()
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "seqrtg: mask rules:", e)
		}
		mc.Rules = rules
		mc.RuleErrors = len(errs)
	}
	return []sequence.Option{sequence.WithMasking(mc)}, nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	db := fs.String("db", "", "pattern database directory (empty = in-memory)")
	batch := fs.Int("batch", sequence.DefaultBatchSize, "batch size")
	classic := fs.Bool("classic", false, "use the original Sequence Analyze (no service partitioning)")
	plain := fs.Bool("plain", false, "treat input as plain text lines, not JSON")
	service := fs.String("service", "unknown", "service name for plain-text input")
	threshold := fs.Int64("save-threshold", 0, "drop patterns matched fewer times in their discovery batch")
	concurrency := fs.Int("concurrency", 1, "services analysed in parallel")
	shards := fs.Int("shards", 0, "store/parser shard count (0 = GOMAXPROCS)")
	archiveOn := fs.Bool("archive", false, "archive matched messages as compressed (pattern ID, variables) blocks under <db>/archive")
	archiveRetention := fs.Duration("archive-retention", 0, "age out archive blocks older than this horizon on flush (0 = keep forever)")
	mf := newMaskFlags(fs)
	quiet := fs.Bool("quiet", false, "suppress per-batch progress")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics (Prometheus), /debug/vars (expvar) and /debug/pprof on this address")
	selfReport := fs.Int("self-report", 0, "print a metrics self-report every N batches (0 = off)")
	strict := fs.Bool("strict", false, "fail on the first undecodable input line instead of skipping it")
	fs.Parse(args)

	dbOpts := []sequence.Option{
		sequence.WithSaveThreshold(*threshold),
		sequence.WithConcurrency(*concurrency),
		sequence.WithStoreShards(*shards),
	}
	if *archiveOn {
		dbOpts = append(dbOpts, sequence.WithArchive())
	}
	if *archiveRetention > 0 {
		dbOpts = append(dbOpts, sequence.WithArchiveRetention(*archiveRetention))
	}
	maskOpts, err := mf.options()
	if err != nil {
		return err
	}
	dbOpts = append(dbOpts, maskOpts...)
	rtg, err := openDB(*db, dbOpts...)
	if err != nil {
		return err
	}
	defer rtg.Close()

	if *metricsAddr != "" {
		serveObservability(*metricsAddr, rtg)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	report := func(r sequence.BatchResult) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "batch: %d messages, %d matched, %d new patterns, %d services, %v\n",
				r.Messages, r.Matched, r.NewPatterns, r.Services, r.Duration.Round(time.Millisecond))
		}
	}

	if *classic {
		// Classic mode reads everything, then runs one mixed analysis.
		recs, err := readAll(os.Stdin, *plain, *service)
		if err != nil {
			return err
		}
		res, err := rtg.Analyze(recs, time.Now())
		if err != nil {
			return err
		}
		report(res)
		fmt.Fprintf(os.Stderr, "total: %d messages, %d patterns stored\n", res.Messages, rtg.PatternCount())
		return nil
	}

	opts := sequence.StreamOptions{
		BatchSize:      *batch,
		PlainText:      *plain,
		DefaultService: *service,
		Report:         report,
		Strict:         *strict,
	}
	if *selfReport > 0 {
		opts.SelfReportEvery = *selfReport
		opts.SelfReport = func(s sequence.MetricsSnapshot) {
			fmt.Fprintf(os.Stderr,
				"self-report: %d msgs, %.1f%% parse hits, %d patterns mined, %d decode errors, %d decode fallbacks, trie peak %d, %d store patterns, %d store io errors\n",
				s.EngineMessages, 100*s.ParseHitRatio(), s.EnginePatternsMined,
				s.IngestDecodeErrors, s.IngestDecodeFallback, s.EngineTrieNodesPeak, s.StorePatterns, s.StoreIOErrors)
		}
	}
	total, err := rtg.RunContext(ctx, os.Stdin, opts)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "seqrtg: interrupted, flushing database")
		} else {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "total: %d messages, %d matched, %d new patterns, %d patterns stored\n",
		total.Messages, total.Matched, total.NewPatterns, rtg.PatternCount())
	return nil
}

// cmdServe runs the network ingestion daemon: the paper's child-process
// deployment turned into a standalone service.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	db := fs.String("db", "", "pattern database directory (empty = in-memory)")
	syslogUDP := fs.String("syslog-udp", "", "UDP syslog listen address (e.g. :5514); empty disables")
	syslogTCP := fs.String("syslog-tcp", "", "TCP syslog listen address (RFC 6587 octet-counting and newline framing); empty disables")
	httpAddr := fs.String("http", "", "HTTP API listen address (POST /api/v1/ingest, GET /api/v1/patterns, GET /api/v1/export); empty disables")
	queueDepth := fs.Int("queue-depth", 0, "bounded record queue depth (default 65536)")
	batch := fs.Int("batch", sequence.DefaultBatchSize, "analysis batch size")
	linger := fs.Duration("linger", 250*time.Millisecond, "max wait for a partial batch before analysing it")
	pushTimeout := fs.Duration("push-timeout", 100*time.Millisecond, "how long a listener blocks on a full queue before shedding")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound for draining accepted records")
	service := fs.String("service", "unknown", "service name for records without one")
	threshold := fs.Int64("save-threshold", 0, "drop patterns matched fewer times in their discovery batch")
	concurrency := fs.Int("concurrency", 1, "services analysed in parallel")
	shards := fs.Int("shards", 0, "store/parser shard count (0 = GOMAXPROCS)")
	archiveOn := fs.Bool("archive", false, "archive matched messages and serve GET /api/v1/query over them")
	archiveRetention := fs.Duration("archive-retention", 0, "age out archive blocks older than this horizon on flush (0 = keep forever)")
	mf := newMaskFlags(fs)
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics (Prometheus), /debug/vars (expvar) and /debug/pprof on this address")
	quiet := fs.Bool("quiet", false, "suppress per-batch progress")
	fs.Parse(args)

	dbOpts := []sequence.Option{
		sequence.WithSaveThreshold(*threshold),
		sequence.WithConcurrency(*concurrency),
		sequence.WithStoreShards(*shards),
	}
	if *archiveOn {
		dbOpts = append(dbOpts, sequence.WithArchive())
	}
	if *archiveRetention > 0 {
		dbOpts = append(dbOpts, sequence.WithArchiveRetention(*archiveRetention))
	}
	maskOpts, err := mf.options()
	if err != nil {
		return err
	}
	dbOpts = append(dbOpts, maskOpts...)
	rtg, err := openDB(*db, dbOpts...)
	if err != nil {
		return err
	}
	defer rtg.Close()

	if *metricsAddr != "" {
		serveObservability(*metricsAddr, rtg)
	}

	srv, err := server.New(rtg, server.Options{
		SyslogUDP:      *syslogUDP,
		SyslogTCP:      *syslogTCP,
		HTTP:           *httpAddr,
		QueueDepth:     *queueDepth,
		BatchSize:      *batch,
		Linger:         *linger,
		PushTimeout:    *pushTimeout,
		DrainTimeout:   *drainTimeout,
		DefaultService: *service,
		Metrics:        rtg.Metrics(),
		Archive:        rtg.Archive(),
		Mask:           rtg.Masker(),
		Report: func(r sequence.BatchResult) {
			if !*quiet {
				fmt.Fprintf(os.Stderr, "batch: %d messages, %d matched, %d new patterns, %d services, %v\n",
					r.Messages, r.Matched, r.NewPatterns, r.Services, r.Duration.Round(time.Millisecond))
			}
		},
		OnError: func(err error) {
			fmt.Fprintln(os.Stderr, "seqrtg: serve:", err)
		},
	})
	if err != nil {
		return err
	}
	for _, l := range []struct{ name, addr string }{
		{"syslog/udp", srv.SyslogUDPAddr()},
		{"syslog/tcp", srv.SyslogTCPAddr()},
		{"http", srv.HTTPAddr()},
	} {
		if l.addr != "" {
			fmt.Fprintf(os.Stderr, "seqrtg: listening %s on %s\n", l.name, l.addr)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.Run(ctx); err != nil {
		return err
	}
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "seqrtg: drained, %d patterns stored\n", rtg.PatternCount())
	}
	return nil
}

func readAll(f *os.File, plain bool, service string) ([]sequence.Record, error) {
	var recs []sequence.Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if plain {
			recs = append(recs, sequence.Record{Service: service, Message: line})
			continue
		}
		var r sequence.Record
		if err := json.Unmarshal([]byte(line), &r); err != nil || r.Message == "" {
			continue
		}
		if r.Service == "" {
			r.Service = service
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

func cmdParse(args []string) error {
	fs := flag.NewFlagSet("parse", flag.ExitOnError)
	db := fs.String("db", "", "pattern database directory")
	plain := fs.Bool("plain", false, "treat input as plain text lines")
	service := fs.String("service", "unknown", "service name for plain-text input")
	fs.Parse(args)

	rtg, err := openDB(*db)
	if err != nil {
		return err
	}
	defer rtg.Close()

	recs, err := readAll(os.Stdin, *plain, *service)
	if err != nil {
		return err
	}
	out := json.NewEncoder(os.Stdout)
	matched := 0
	for _, r := range recs {
		p, vals, ok := rtg.Parse(r.Service, r.Message)
		type result struct {
			Service string            `json:"service"`
			Message string            `json:"message"`
			Matched bool              `json:"matched"`
			Pattern string            `json:"pattern,omitempty"`
			ID      string            `json:"pattern_id,omitempty"`
			Values  map[string]string `json:"values,omitempty"`
		}
		res := result{Service: r.Service, Message: r.Message, Matched: ok}
		if ok {
			matched++
			res.Pattern = p.Text()
			res.ID = p.ID
			res.Values = vals
		}
		if err := out.Encode(res); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "%d/%d messages matched\n", matched, len(recs))
	return nil
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	db := fs.String("db", "", "pattern database directory")
	format := fs.String("format", "patterndb", "patterndb | yaml | grok")
	minCount := fs.Int64("min-count", 0, "export only patterns matched at least this often")
	maxComplexity := fs.Float64("max-complexity", 0, "export only patterns at or below this complexity (0 = all)")
	service := fs.String("service", "", "restrict to one service")
	fs.Parse(args)

	rtg, err := openDB(*db)
	if err != nil {
		return err
	}
	defer rtg.Close()

	opts := sequence.ExportOptions{MinCount: *minCount, MaxComplexity: *maxComplexity}
	if *service != "" {
		opts.Services = []string{*service}
	}
	return rtg.Export(os.Stdout, sequence.Format(*format), opts)
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	db := fs.String("db", "", "pattern database directory")
	top := fs.Int("top", 10, "show the N most-matched patterns")
	fs.Parse(args)

	rtg, err := openDB(*db)
	if err != nil {
		return err
	}
	defer rtg.Close()

	all := rtg.Patterns()
	perService := map[string]int{}
	var total int64
	for _, p := range all {
		perService[p.Service]++
		total += p.Count
	}
	fmt.Printf("patterns: %d across %d services, %d matches recorded\n", len(all), len(perService), total)
	services := rtg.Services()
	for _, s := range services {
		fmt.Printf("  %-24s %d patterns\n", s, perService[s])
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Count > all[j].Count })
	if *top > len(all) {
		*top = len(all)
	}
	if *top > 0 {
		fmt.Printf("top %d patterns by match count:\n", *top)
		for _, p := range all[:*top] {
			fmt.Printf("  %8d  c=%.2f  [%s] %s\n", p.Count, p.Complexity(), p.Service, p.Text())
		}
	}
	return nil
}

// cmdMerge folds shard databases into a target database — the recombine
// step of the paper's horizontal scaling: services are sharded over any
// number of Sequence-RTG instances with private databases, and since
// patterns never cross services, merging is lossless.
func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	db := fs.String("db", "", "target pattern database directory")
	fs.Parse(args)
	if *db == "" {
		return fmt.Errorf("merge: -db target is required")
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("merge: give at least one source database directory as an argument")
	}
	target, err := openDB(*db)
	if err != nil {
		return err
	}
	defer target.Close()
	for _, srcDir := range fs.Args() {
		src, err := openDB(srcDir)
		if err != nil {
			return fmt.Errorf("merge: open source %s: %w", srcDir, err)
		}
		if err := target.MergeFrom(src); err != nil {
			src.Close()
			return err
		}
		src.Close()
		fmt.Fprintf(os.Stderr, "merged %s\n", srcDir)
	}
	fmt.Fprintf(os.Stderr, "target now holds %d patterns\n", target.PatternCount())
	return nil
}

func cmdPurge(args []string) error {
	fs := flag.NewFlagSet("purge", flag.ExitOnError)
	db := fs.String("db", "", "pattern database directory")
	minCount := fs.Int64("min-count", 2, "delete patterns matched fewer times")
	olderThan := fs.Int("older-than", 0, "only delete patterns idle for at least this many days")
	fs.Parse(args)

	rtg, err := openDB(*db)
	if err != nil {
		return err
	}
	defer rtg.Close()

	cutoff := time.Now().AddDate(0, 0, -*olderThan)
	n, err := rtg.Purge(*minCount, cutoff)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "purged %d patterns, %d remain\n", n, rtg.PatternCount())
	return nil
}
