package sequence_test

// Metamorphic check of the JSONL decoder's two paths. The same fixed-seed
// corpus goes through RTG.Run twice: once in the plain wire shape, which
// the hand-written fast path decodes, and once with the first byte of
// every message written as an equivalent JSON escape, which only
// encoding/json decodes. Both streams describe the same records, so the
// databases they leave behind must agree pattern for pattern; and the
// fallback counter says which path actually ran, since no switch turns
// either off.

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	sequence "repro"
	"repro/internal/workload"
)

// minedPattern is what the two databases must agree on. Time stamps are
// left out: they are the wall clock of each run.
type minedPattern struct {
	ID, Service, Text string
	Count             int64
	Examples          []string
}

// mineStream runs one JSON-lines stream into a fresh file-backed database
// and returns the reopened database's patterns with the stream's
// decode-fallback and record counts.
func mineStream(t *testing.T, stream []byte) (mined []minedPattern, fallback, records int64) {
	t.Helper()
	dir := t.TempDir()
	rtg, err := sequence.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rtg.Run(bytes.NewReader(stream), sequence.StreamOptions{BatchSize: 1500}); err != nil {
		t.Fatal(err)
	}
	s := rtg.Snapshot()
	if s.IngestDecodeErrors != 0 {
		t.Fatalf("%d lines failed to decode", s.IngestDecodeErrors)
	}
	if err := rtg.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := sequence.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for _, p := range reopened.Patterns() {
		examples := append([]string(nil), p.Examples...)
		sort.Strings(examples)
		mined = append(mined, minedPattern{ID: p.ID, Service: p.Service, Text: p.Text(), Count: p.Count, Examples: examples})
	}
	sort.Slice(mined, func(a, b int) bool { return mined[a].ID < mined[b].ID })
	return mined, s.IngestDecodeFallback, s.IngestRecords
}

func TestDecoderFastPathEqualsFallback(t *testing.T) {
	const n = 6000
	gen := workload.New(workload.Config{Seed: 1}) // the `loggen workload -seed 1` stream
	var plain, escaped bytes.Buffer
	for i := 0; i < n; i++ {
		rec := gen.Next()
		fmt.Fprintf(&plain, "{\"service\":\"%s\",\"message\":\"%s\"}\n", rec.Service, rec.Message)
		fmt.Fprintf(&escaped, "{\"service\":\"%s\",\"message\":\"\\u%04x%s\"}\n", rec.Service, rec.Message[0], rec.Message[1:])
	}

	fast, fastFallback, fastRecords := mineStream(t, plain.Bytes())
	slow, slowFallback, slowRecords := mineStream(t, escaped.Bytes())
	if fastRecords != n || slowRecords != n {
		t.Fatalf("records decoded: plain %d, escaped %d, want %d each", fastRecords, slowRecords, n)
	}
	if fastFallback != 0 {
		t.Errorf("plain corpus: %d lines fell back to encoding/json, want 0", fastFallback)
	}
	if slowFallback != n {
		t.Errorf("escaped corpus: %d lines fell back to encoding/json, want all %d", slowFallback, n)
	}
	if len(fast) == 0 || len(fast) != len(slow) {
		t.Fatalf("plain stream left %d patterns, escaped stream %d", len(fast), len(slow))
	}
	for i := range fast {
		if !reflect.DeepEqual(fast[i], slow[i]) {
			t.Fatalf("pattern %d differs:\n plain   %+v\n escaped %+v", i, fast[i], slow[i])
		}
	}
}
