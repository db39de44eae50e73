package sequence_test

// Regression and stress coverage for the sharded persistence path at the
// public API: purge must leave the parser consistent with the store, and
// the full read/write surface must be safe under concurrent use (run
// under -race).

import (
	"context"
	"sync"
	"testing"
	"time"

	sequence "repro"
	"repro/internal/workload"
)

// TestPurgeThenReanalyze: analyze, purge everything, re-analyze the SAME
// messages. Before the purge/parser desync fix the purged patterns kept
// matching out of the parser and their statistics went to store touches
// of deleted IDs, failing the batch.
func TestPurgeThenReanalyze(t *testing.T) {
	rtg, err := sequence.Open("", sequence.WithStoreShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer rtg.Close()

	recs := sshdRecords(30)
	if _, err := rtg.AnalyzeByService(recs, now); err != nil {
		t.Fatal(err)
	}
	if rtg.PatternCount() == 0 {
		t.Fatal("no patterns discovered")
	}
	if n, err := rtg.Purge(1<<30, now.Add(time.Hour)); err != nil || n == 0 {
		t.Fatalf("purge: n=%d err=%v", n, err)
	}
	if rtg.PatternCount() != 0 {
		t.Fatalf("store still holds %d patterns after purge", rtg.PatternCount())
	}
	// Purged patterns must no longer parse...
	if _, _, ok := rtg.Parse("sshd", recs[0].Message); ok {
		t.Fatal("purged pattern still matches through Parse")
	}
	// ...and re-analysis of the same messages succeeds and re-discovers.
	res, err := rtg.AnalyzeByService(recs, now.Add(2*time.Hour))
	if err != nil {
		t.Fatalf("re-analysis after purge failed: %v", err)
	}
	if res.Matched != 0 {
		t.Errorf("re-analysis matched %d messages against purged patterns", res.Matched)
	}
	if res.NewPatterns == 0 || rtg.PatternCount() == 0 {
		t.Errorf("re-analysis did not re-discover: %+v, stored %d", res, rtg.PatternCount())
	}
}

// TestConcurrentAPIStress exercises the whole public surface at once
// against a file-backed sharded database: analysis batches at
// Concurrency 8, parallel Parse readers, periodic Purge and metric
// snapshots. The assertions are weak on purpose — under -race the test's
// value is that no data race or deadlock exists between the paths.
func TestConcurrentAPIStress(t *testing.T) {
	rtg, err := sequence.Open(t.TempDir(),
		sequence.WithStoreShards(8),
		sequence.WithConcurrency(8))
	if err != nil {
		t.Fatal(err)
	}
	defer rtg.Close()

	gen := workload.New(workload.Config{Services: 24, Seed: 7})
	seed := gen.Records(2000)
	if _, err := rtg.AnalyzeByService(seed, now); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup

	// Analysis writer: repeated batches over fresh workload slices.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ctx.Err() == nil && i < 8; i++ {
			batch := gen.Records(1500)
			if _, err := rtg.AnalyzeByServiceContext(ctx, batch, now.Add(time.Duration(i)*time.Minute)); err != nil && ctx.Err() == nil {
				t.Errorf("analysis batch %d: %v", i, err)
				return
			}
		}
	}()

	// Parse readers on a stable message set.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ctx.Err() == nil && i < 4000; i++ {
				rec := seed[i%len(seed)]
				rtg.Parse(rec.Service, rec.Message)
			}
		}()
	}

	// Purger: periodically removes never-rematched patterns.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ctx.Err() == nil && i < 20; i++ {
			if _, err := rtg.Purge(2, now.Add(-time.Hour)); err != nil {
				t.Errorf("purge: %v", err)
				return
			}
		}
	}()

	// Observer: snapshots, pattern listings, exports of the live state.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ctx.Err() == nil && i < 50; i++ {
			_ = rtg.Snapshot()
			for _, p := range rtg.Patterns() {
				_ = p.Text()
			}
			_ = rtg.Services()
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Error("stress test deadlocked")
	}
	cancel()
	<-done

	snap := rtg.Snapshot()
	if snap.EngineBatches == 0 || snap.StoreShards != 8 {
		t.Errorf("snapshot inconsistent: batches=%d shards=%d", snap.EngineBatches, snap.StoreShards)
	}
}
