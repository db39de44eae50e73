package core

// Tests for the sharded persistence path at the engine level: stale
// parser entries must not kill a batch, Purge keeps store and parser in
// sync, and concurrent service workers produce the same results as the
// sequential run (already covered) without a batch-wide lock.

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/store"
)

// TestTouchUnknownRecovers: when a pattern known to the parser vanishes
// from the store (an external delete between batches), the next batch
// must not fail — the miss is counted and the pattern re-seeded from the
// parser's copy.
func TestTouchUnknownRecovers(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 4})
	if _, err := e.AnalyzeByService(sshdBatch(50, 1), now); err != nil {
		t.Fatal(err)
	}
	// Purge everything from the store behind the parser's back.
	deleted, err := e.Store().PurgeIDs(math.MaxInt64, now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) == 0 {
		t.Fatal("no patterns to delete; test setup broken")
	}
	if e.PatternCount() == 0 {
		t.Fatal("parser should still know the patterns")
	}

	res, err := e.AnalyzeByService(sshdBatch(50, 1), now.Add(time.Minute))
	if err != nil {
		t.Fatalf("batch after external delete must succeed: %v", err)
	}
	if res.Matched == 0 {
		t.Fatal("parser should still match the stale patterns")
	}
	if got := e.Metrics().Snapshot().StoreTouchUnknown; got == 0 {
		t.Error("store_touch_unknown metric not incremented")
	}
	// The matched patterns were re-seeded into the store.
	if e.Store().Count() == 0 {
		t.Error("matched patterns must be re-upserted into the store")
	}
	for _, p := range e.Store().All() {
		if p.Count <= 0 || p.LastMatched.IsZero() {
			t.Errorf("re-seeded pattern has empty stats: %+v", p)
		}
	}
}

// TestEnginePurgeSyncsParser: Engine.Purge removes patterns from both the
// store and the parser, so purged patterns stop matching and the same
// messages can be re-discovered by the next analysis.
func TestEnginePurgeSyncsParser(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 4})
	if _, err := e.AnalyzeByService(sshdBatch(50, 1), now); err != nil {
		t.Fatal(err)
	}
	before := e.PatternCount()
	if before == 0 {
		t.Fatal("no patterns discovered")
	}

	n, err := e.Purge(1<<30, now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if n != before {
		t.Fatalf("purged %d, want %d", n, before)
	}
	if e.Store().Count() != 0 || e.PatternCount() != 0 {
		t.Fatalf("after purge: store %d, parser %d, want 0/0", e.Store().Count(), e.PatternCount())
	}

	// Re-analysis of the same messages succeeds and re-discovers.
	res, err := e.AnalyzeByService(sshdBatch(50, 1), now.Add(2*time.Hour))
	if err != nil {
		t.Fatalf("re-analysis after purge: %v", err)
	}
	if res.Matched != 0 {
		t.Errorf("purged patterns still matching: %+v", res)
	}
	if res.NewPatterns == 0 {
		t.Error("purged patterns not re-discovered")
	}
}

// TestConcurrentWorkersShareNoLock runs a many-service batch at
// Concurrency 8 against a persistent sharded store and checks the result
// matches the sequential run — the equivalence that lets the refactor
// drop the batch-wide mutex (run under -race).
func TestConcurrentWorkersShareNoLock(t *testing.T) {
	mixed := make([]ingest.Record, 0, 16*30)
	for svc := 0; svc < 16; svc++ {
		for i := 0; i < 30; i++ {
			mixed = append(mixed, ingest.Record{
				Service: fmt.Sprintf("svc%d", svc),
				Message: fmt.Sprintf("unit %d of service started in %d ms", i, 10+i),
			})
		}
	}
	run := func(concurrency int) BatchResult {
		st, err := store.OpenOptions(t.TempDir(), store.Options{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		e := NewEngine(st, Config{Concurrency: concurrency, Shards: 4})
		res, err := e.AnalyzeByService(mixed, now)
		if err != nil {
			t.Fatal(err)
		}
		res.Duration = 0
		return res
	}
	seq, par := run(1), run(8)
	if seq != par {
		t.Fatalf("sequential %+v != concurrent %+v", seq, par)
	}
}
