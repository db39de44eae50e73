package sequence_test

// End-to-end tests of the command-line tools: loggen generates a stream,
// seqrtg mines and exports it, pdbtool validates and matches the exported
// pattern database — the full production loop, subprocess for subprocess.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	sequence "repro"
	"repro/internal/store/codec"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// buildTools compiles the four binaries once per test run.
func buildTools(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "seqrtg-bin")
		if buildErr != nil {
			return
		}
		for _, tool := range []string{"seqrtg", "loggen", "experiments", "pdbtool"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, tool), "./cmd/"+tool)
			cmd.Dir = "."
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = err
				t.Logf("build %s: %s", tool, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building tools: %v", buildErr)
	}
	return binDir
}

func run(t *testing.T, stdin []byte, name string, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(name, args...)
	if stdin != nil {
		cmd.Stdin = bytes.NewReader(stdin)
	}
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr: %s", name, args, err, errb.String())
	}
	return out.String(), errb.String()
}

func TestCLIFullPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	dbdir := t.TempDir()

	// 1. Generate a workload stream.
	stream, _ := run(t, nil, filepath.Join(bin, "loggen"), "workload", "-n", "6000", "-services", "30", "-seed", "7")
	if strings.Count(stream, "\n") != 6000 {
		t.Fatalf("loggen produced %d lines", strings.Count(stream, "\n"))
	}

	// 2. Mine it with seqrtg into a persistent database.
	_, errOut := run(t, []byte(stream), filepath.Join(bin, "seqrtg"),
		"analyze", "-db", dbdir, "-batch", "2000", "-quiet")
	if !strings.Contains(errOut, "patterns stored") {
		t.Fatalf("analyze summary missing: %s", errOut)
	}

	// 3. Stats show the patterns.
	stats, _ := run(t, nil, filepath.Join(bin, "seqrtg"), "stats", "-db", dbdir)
	if !strings.Contains(stats, "patterns:") {
		t.Fatalf("stats output: %s", stats)
	}

	// 4. A fresh stream from the same world parses against the database.
	stream2, _ := run(t, nil, filepath.Join(bin, "loggen"), "workload", "-n", "500", "-services", "30", "-seed", "7")
	parsed, parseSummary := run(t, []byte(stream2), filepath.Join(bin, "seqrtg"), "parse", "-db", dbdir)
	if !strings.Contains(parsed, `"matched":true`) {
		t.Fatalf("no matches in parse output")
	}
	if !strings.Contains(parseSummary, "messages matched") {
		t.Fatalf("parse summary: %s", parseSummary)
	}

	// 5. Export the pattern database for syslog-ng...
	pdbXML, _ := run(t, nil, filepath.Join(bin, "seqrtg"),
		"export", "-db", dbdir, "-format", "patterndb", "-min-count", "3", "-max-complexity", "0.95")
	pdbFile := filepath.Join(t.TempDir(), "patterns.xml")
	if err := os.WriteFile(pdbFile, []byte(pdbXML), 0o644); err != nil {
		t.Fatal(err)
	}

	// 6. ...validate it with pdbtool (the promotion gate)...
	testOut, _ := run(t, nil, filepath.Join(bin, "pdbtool"), "test", "-pdb", pdbFile)
	if !strings.Contains(testOut, "all test cases passed") {
		t.Fatalf("pdbtool test: %s", testOut)
	}

	// 7. ...and classify live traffic with it.
	matchOut, matchSummary := run(t, []byte(stream2), filepath.Join(bin, "pdbtool"),
		"match", "-pdb", pdbFile, "-json")
	if !strings.Contains(matchOut, `"matched":true`) {
		t.Fatalf("pdbtool match found nothing:\n%s", matchSummary)
	}

	// 8. Other export formats work too.
	grokOut, _ := run(t, nil, filepath.Join(bin, "seqrtg"), "export", "-db", dbdir, "-format", "grok")
	if !strings.Contains(grokOut, "grok {") {
		t.Fatalf("grok export: %s", grokOut)
	}
	yamlOut, _ := run(t, nil, filepath.Join(bin, "seqrtg"), "export", "-db", dbdir, "-format", "yaml")
	if !strings.Contains(yamlOut, "services:") {
		t.Fatalf("yaml export: %s", yamlOut)
	}

	// 9. Purge the weak tail.
	_, purgeOut := run(t, nil, filepath.Join(bin, "seqrtg"), "purge", "-db", dbdir, "-min-count", "2")
	if !strings.Contains(purgeOut, "purged") {
		t.Fatalf("purge summary: %s", purgeOut)
	}
}

func TestCLILoggenLoghub(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	out, _ := run(t, nil, filepath.Join(bin, "loggen"), "loghub", "-dataset", "Apache", "-n", "50", "-labels")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 50 {
		t.Fatalf("got %d lines", len(lines))
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "E") || !strings.Contains(l, "\t") {
			t.Fatalf("label prefix missing: %q", l)
		}
	}
}

func TestCLIExperimentsFigs34(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	out, _ := run(t, nil, filepath.Join(bin, "experiments"), "figs34")
	for _, frag := range []string{
		"@ESTRING:action: @from @IPv4:srcip@ port @NUMBER:srcport@",
		"%{DATA:action} from %{IP:srcip} port %{INT:srcport}",
		"pattern_id",
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("figs34 output missing %q:\n%s", frag, out)
		}
	}
}

func TestCLIMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	dbA, dbB, dbT := t.TempDir(), t.TempDir(), t.TempDir()

	streamA, _ := run(t, nil, filepath.Join(bin, "loggen"), "workload", "-n", "2000", "-services", "10", "-seed", "5")
	streamB, _ := run(t, nil, filepath.Join(bin, "loggen"), "workload", "-n", "2000", "-services", "10", "-seed", "6")
	run(t, []byte(streamA), filepath.Join(bin, "seqrtg"), "analyze", "-db", dbA, "-quiet")
	run(t, []byte(streamB), filepath.Join(bin, "seqrtg"), "analyze", "-db", dbB, "-quiet")

	_, mergeOut := run(t, nil, filepath.Join(bin, "seqrtg"), "merge", "-db", dbT, dbA, dbB)
	if !strings.Contains(mergeOut, "target now holds") {
		t.Fatalf("merge summary: %s", mergeOut)
	}
	stats, _ := run(t, nil, filepath.Join(bin, "seqrtg"), "stats", "-db", dbT, "-top", "0")
	if !strings.Contains(stats, "patterns:") {
		t.Fatalf("stats after merge: %s", stats)
	}
}

func TestCLIJournalDump(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)

	// Hand-craft a journal mixing both encodings plus the torn tail a
	// crash leaves: the first v1 JSON line of the committed legacy
	// database, one v2 binary frame, half a frame.
	legacy, err := os.ReadFile("testdata/legacy-v1/journal.wal")
	if err != nil {
		t.Fatal(err)
	}
	buf := legacy[:bytes.IndexByte(legacy, '\n')+1]
	p, err := sequence.PatternFromText("connection closed by peer", "sshd")
	if err != nil {
		t.Fatal(err)
	}
	buf, err = codec.AppendRecord(buf, &codec.Record{Op: codec.OpTouch, ID: p.ID, N: 7, E: 1})
	if err != nil {
		t.Fatal(err)
	}
	torn, err := codec.AppendRecord(nil, &codec.Record{Op: codec.OpDelete, ID: p.ID})
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, torn[:len(torn)/2]...)
	file := filepath.Join(t.TempDir(), "journal-000.wal")
	if err := os.WriteFile(file, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	out, _ := run(t, nil, filepath.Join(bin, "pdbtool"), "journal", "dump", file)
	for _, frag := range []string{
		"v1 upsert", "v2 touch", "id=" + p.ID, "n=7", "epoch=1",
		"torn tail at offset", "2 records",
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("journal dump output missing %q:\n%s", frag, out)
		}
	}
}

func TestCLIClassicAnalyze(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	stream, _ := run(t, nil, filepath.Join(bin, "loggen"), "workload", "-n", "1000", "-services", "10", "-seed", "3")
	_, errOut := run(t, []byte(stream), filepath.Join(bin, "seqrtg"), "analyze", "-db", "", "-classic", "-quiet")
	if !strings.Contains(errOut, "patterns stored") {
		t.Fatalf("classic analyze summary: %s", errOut)
	}
}
