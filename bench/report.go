package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// workloadResult is one workload's part of result.json.
type workloadResult struct {
	Name   string    `json:"name"`
	Runs   []outcome `json:"runs"`   // untraced: end-to-end metrics
	Traced *outcome  `json:"traced"` // traced: per-layer metrics and the waterfall
	// TraceOverhead is 1 - traced msgs/s ÷ untraced msgs/s: what the
	// boundary spans and the re-composed loop cost the live pass.
	TraceOverhead float64 `json:"core.trace_overhead_share"`
}

// resultFile is bench/out/result.json.
type resultFile struct {
	Schema     string           `json:"schema"`
	GitSHA     string           `json:"git_sha"`
	Go         string           `json:"go"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seed       int64            `json:"seed"`
	Scale      float64          `json:"scale"`
	Seconds    float64          `json:"seconds"`
	Claim      *string          `json:"claim"` // the benchmark itself claims no gain
	Workloads  []workloadResult `json:"workloads"`
}

// child runs one workload in a fresh process of this binary, so every
// run starts from a clean heap and reports its own peak RSS.
func child(cfg config, name string, trace, n int) (outcome, error) {
	var out outcome
	exe, err := os.Executable()
	if err != nil {
		return out, err
	}
	detail := filepath.Join(cfg.outDir, fmt.Sprintf("detail-%s-%d-%d.json", name, trace, n))
	defer os.Remove(detail)
	cmd := exec.Command(exe,
		"-workload", name, "-trace", strconv.Itoa(trace), "-detail", detail, "-out", cfg.outDir,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64))
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	b, err := os.ReadFile(detail)
	if err != nil {
		return out, errors.Join(runErr, err)
	}
	if err := json.Unmarshal(b, &out); err != nil {
		return out, err
	}
	// A child whose checks failed exits non-zero too; that is a result,
	// not a failure to run.
	if runErr != nil && out.Correct {
		return out, runErr
	}
	return out, nil
}

// runAll runs every workload, untraced then traced, each in a child
// process, prints the waterfalls, and writes result.json.
func runAll(cfg config, runs int) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	res := resultFile{
		Schema: "seqbench/2", GitSHA: gitSHA(), Go: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: cfg.seed, Scale: cfg.scale, Seconds: cfg.seconds,
	}
	incorrect := 0
	for _, w := range workloads {
		wr := workloadResult{Name: w.name}
		var rates []float64
		for n := 0; n < max(1, runs); n++ {
			out, err := child(cfg, w.name, 0, n)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if !out.Correct {
				incorrect++
			}
			rates = append(rates, out.Metrics["msgs_per_s"].Value)
			wr.Runs = append(wr.Runs, out)
		}
		traced, err := child(cfg, w.name, 1, 0)
		if err != nil {
			return fmt.Errorf("%s (traced): %w", w.name, err)
		}
		if !traced.Correct {
			incorrect++
		}
		wr.Traced = &traced
		wr.TraceOverhead = 1 - ratio(traced.Metrics["core.traced_msgs_per_s"].Value, median(rates))
		printWaterfall(wr)
		res.Workloads = append(res.Workloads, wr)
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "result.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if incorrect > 0 {
		return fmt.Errorf("%d runs failed their correctness checks", incorrect)
	}
	return nil
}

func printWaterfall(wr workloadResult) {
	t := wr.Traced
	fmt.Printf("\n%s waterfall: shadow cost per op x live op count, ns per message\n", wr.Name)
	fmt.Printf("  %-20s %14s %12s %12s\n", "layer", "shadow ns/op", "live ops", "ns/msg")
	sum := 0.0
	for _, r := range t.Waterfall {
		fmt.Printf("  %-20s %14.1f %12d %12.1f\n", r.Layer, r.NsPerOp, r.Ops, r.NsMsg)
		sum += r.NsMsg
	}
	fmt.Printf("  %-20s %14s %12s %12.1f  (live analyze+flush %.1f)\n", "sum", "", "", sum, t.LiveNsMsg)
	fmt.Printf("%-22s %-34s %16.4f share\n\n", wr.Name, "core.trace_overhead_share", wr.TraceOverhead)
}

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// compareFiles prints, for every workload and end-to-end metric, B's
// median against A's with the bound BENCHMARK.json fixes, and fails when
// any metric got worse by more than its bound. A metric whose own
// run-to-run spread exceeds the bound is unresolved, not unchanged.
func compareFiles(pathA, pathB string) error {
	bf, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	var a, b resultFile
	for _, f := range []struct {
		path string
		dst  *resultFile
	}{{pathA, &a}, {pathB, &b}} {
		raw, err := os.ReadFile(f.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, f.dst); err != nil {
			return fmt.Errorf("%s: %w", f.path, err)
		}
	}
	if a.Seed != b.Seed || a.Scale != b.Scale || a.Seconds != b.Seconds {
		return fmt.Errorf("runs differ in settings: seed %d/%d, scale %g/%g, seconds %g/%g",
			a.Seed, b.Seed, a.Scale, b.Scale, a.Seconds, b.Seconds)
	}
	values := func(w workloadResult, metric string) (vs []float64) {
		for _, r := range w.Runs {
			vs = append(vs, r.Metrics[metric].Value)
		}
		return vs
	}
	fmt.Printf("%-14s %-16s %14s %14s %8s %7s %9s %9s  %s\n",
		"workload", "metric", "A median", "B median", "B/A", "bound", "spread A", "spread B", "verdict")
	regressions := 0
	for _, wa := range a.Workloads {
		for _, wb := range b.Workloads {
			if wa.Name != wb.Name {
				continue
			}
			for _, m := range bf.EndToEnd {
				va, vb := values(wa, m.Name), values(wb, m.Name)
				ma, mb := median(va), median(vb)
				worse := ratio(mb-ma, ma)
				if m.Better == "higher" {
					worse = -worse
				}
				sa, okA := spread(va)
				sb, okB := spread(vb)
				verdict := "ok"
				switch {
				case (okA && sa > m.Bound) || (okB && sb > m.Bound):
					verdict = "unresolved"
				case worse > m.Bound:
					verdict = "REGRESSION"
					regressions++
				case worse < -m.Bound:
					verdict = "better"
				}
				fmt.Printf("%-14s %-16s %14.4f %14.4f %8.4f %7.2f %9.4f %9.4f  %s\n",
					wa.Name, m.Name, ma, mb, ratio(mb, ma), m.Bound, sa, sb, verdict)
			}
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d metrics got worse by more than their bound", regressions)
	}
	return nil
}
