// Command bench is the repository's benchmark: six workloads that drive
// Sequence-RTG from outside, from a JSON-lines stream on standard input
// to the network daemon, with end-to-end metrics from an untraced pass
// and per-layer metrics from a traced pass. See README.md.
//
//	go -C bench run repro/bench                        every workload, both passes
//	go -C bench run repro/bench -workload W -seed N -seconds S -trace 0|1
//	go -C bench run repro/bench -compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
)

var workloads = []workloadDef{
	{"stream_fresh", func(e *env) error { return runStream(e, streamSpec{maxRate: 210000}) }},
	{"stream_repeat", func(e *env) error { return runStream(e, streamSpec{repeatShare: 0.9, maxRate: 500000}) }},
	{"stream_par", func(e *env) error { return runStream(e, streamSpec{concurrency: 2, maxRate: 270000}) }},
	{"adhoc_cold", runAdhoc},
	{"serve_tcp", runServeTCP},
	{"serve_mixed", runServeMixed},
}

// errIncorrect ends a run whose correctness checks failed: the result is
// printed, and the exit code is non-zero.
var errIncorrect = errors.New("correctness checks failed")

// benchmarkFile is the declaration the driver reads; the bench takes its
// default run length and the regression bounds from it.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmarkFile() (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(b, &bf)
}

func main() {
	var cfg config
	var trace, runs int
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload in this process (default: all, each in a child process)")
	flag.Int64Var(&cfg.seed, "seed", 1, "corpus seed")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "length of the timed window (default: run_seconds of ../BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1 = traced pass: per-layer metrics; 0 = untraced pass: end-to-end metrics")
	flag.Float64Var(&cfg.scale, "scale", 1, "multiplies every record count and rate")
	flag.StringVar(&cfg.outDir, "out", "out", "directory for scratch data, traces and result.json")
	flag.StringVar(&cfg.detail, "detail", "", "with -workload: also write the run's full outcome to this file")
	flag.IntVar(&runs, "runs", 1, "without -workload: untraced runs per workload")
	flag.BoolVar(&compare, "compare", false, "compare two result files: bench -compare A.json B.json")
	flag.Parse()
	cfg.trace = trace != 0

	if err := run(cfg, compare, runs); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(cfg config, compare bool, runs int) error {
	if compare {
		if flag.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if cfg.seconds <= 0 {
		bf, err := readBenchmarkFile()
		if err != nil {
			return fmt.Errorf("no -seconds given and no run_seconds to read: %w", err)
		}
		cfg.seconds = float64(bf.RunSeconds)
	}
	if cfg.scale <= 0 {
		return errors.New("-scale must be positive")
	}
	if cfg.workload == "" {
		return runAll(cfg, runs)
	}
	for _, w := range workloads {
		if w.name == cfg.workload {
			return runOne(cfg, w)
		}
	}
	return fmt.Errorf("unknown workload %q", cfg.workload)
}
