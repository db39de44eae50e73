package store

// Tests for the service-sharded store: shard-count equivalence, lossless
// reopening of the pre-sharding single-journal layout, crash recovery
// with torn records under both layouts, and the deep-copy guarantee of
// Get/All/ByService.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/patterns"
)

// runOps drives one deterministic mutation sequence against a store:
// batches that upsert a pattern and touch it, then a purge.
func runOps(t *testing.T, s *Store) {
	t.Helper()
	for i := 0; i < 40; i++ {
		svc := fmt.Sprintf("svc%d", i%7)
		p := pat(t, fmt.Sprintf("event %d in %%string%%", i), svc)
		unknown, err := s.ApplyBatch(svc, []Op{
			{Kind: OpUpsert, Pattern: p},
			{Kind: OpTouch, ID: p.ID, N: int64(i), When: t0.Add(time.Duration(i) * time.Minute), Example: fmt.Sprintf("event %d in x", i)},
		})
		if err != nil || len(unknown) > 0 {
			t.Fatalf("ApplyBatch = %v, %v", unknown, err)
		}
	}
	if ids, err := s.PurgeIDs(3, t0.Add(2*time.Minute)); err != nil || len(ids) != 2 {
		t.Fatalf("PurgeIDs = %v, %v; want 2 IDs", ids, err)
	}
}

// TestShardCountEquivalence: the same operations against 1-sharded and
// 8-sharded stores produce identical contents, and both persist
// identically across reopen with yet another shard count.
func TestShardCountEquivalence(t *testing.T) {
	dirs := map[int]string{1: t.TempDir(), 8: t.TempDir()}
	results := map[int][]*patterns.Pattern{}
	for _, shards := range []int{1, 8} {
		s, err := OpenOptions(dirs[shards], Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		runOps(t, s)
		results[shards] = s.All()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	a, b := results[1], results[8]
	if len(a) != len(b) {
		t.Fatalf("pattern counts differ: 1 shard %d vs 8 shards %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Count != b[i].Count {
			t.Errorf("pattern %d diverges: %s/%d vs %s/%d", i, a[i].ID, a[i].Count, b[i].ID, b[i].Count)
		}
	}
	// Cross-shard-count reopen: the 8-shard database under 3 shards.
	r, err := OpenOptions(dirs[8], Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := r.All()
	if len(got) != len(a) {
		t.Fatalf("reopen with 3 shards: %d patterns, want %d", len(got), len(a))
	}
	for i := range got {
		if got[i].ID != a[i].ID || got[i].Count != a[i].Count {
			t.Errorf("reopened pattern %d diverges", i)
		}
	}
}

// writeLegacyLayout builds a database directory exactly as the
// pre-sharding store did: one patterns.json snapshot plus one journal.wal
// with records beyond the snapshot.
func writeLegacyLayout(t *testing.T, dir string, snap []*patterns.Pattern, journal []record) {
	t.Helper()
	if snap != nil {
		data, err := json.MarshalIndent(snap, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, snapshotFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var buf []byte
	for _, r := range journal {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, b...)
		buf = append(buf, '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, legacyJournal), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyLayoutReopensLosslessly: a database written by the
// pre-refactor single-journal store opens under the sharded layout with
// nothing lost, and the legacy journal is retired after migration.
func TestLegacyLayoutReopensLosslessly(t *testing.T) {
	dir := t.TempDir()
	snapPat := pat(t, "from snapshot %string%", "alpha")
	snapPat.ComputeID()
	snapPat.Count = 7
	jPat := pat(t, "from journal %integer%", "beta")
	jPat.ComputeID()
	writeLegacyLayout(t, dir, []*patterns.Pattern{snapPat}, []record{
		{Op: "upsert", Pattern: jPat},
		{Op: "touch", ID: snapPat.ID, N: 5, When: t0.Add(time.Hour), Example: "from snapshot x"},
		{Op: "touch", ID: jPat.ID, N: 2, When: t0.Add(2 * time.Hour)},
	})

	s, err := OpenOptions(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(snapPat.ID); !ok || got.Count != 12 {
		t.Fatalf("snapshot pattern after migration: %+v %v, want count 12", got, ok)
	}
	if got, ok := s.Get(jPat.ID); !ok || got.Count != 3 {
		t.Fatalf("journal pattern after migration: %+v %v, want count 3", got, ok)
	}
	if _, err := os.Stat(filepath.Join(dir, legacyJournal)); !os.IsNotExist(err) {
		t.Errorf("legacy journal must be retired after migration, stat err = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// And the migrated layout reopens cleanly.
	r, err := OpenOptions(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Count() != 2 {
		t.Fatalf("count after second reopen = %d, want 2", r.Count())
	}
}

// TestTornJournalMidFileLegacy: a legacy journal with valid records
// before a torn final record must replay everything before the tear.
func TestTornJournalMidFileLegacy(t *testing.T) {
	dir := t.TempDir()
	p := pat(t, "survivor %string%", "svc")
	p.ComputeID()
	writeLegacyLayout(t, dir, nil, []record{
		{Op: "upsert", Pattern: p},
		{Op: "touch", ID: p.ID, N: 9, When: t0.Add(time.Hour)},
	})
	f, err := os.OpenFile(filepath.Join(dir, legacyJournal), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"touch","id":"` + p.ID + `","n":100`)
	f.Close()

	s, err := OpenOptions(dir, Options{Shards: 4})
	if err != nil {
		t.Fatalf("torn legacy journal must be tolerated: %v", err)
	}
	defer s.Close()
	got, ok := s.Get(p.ID)
	if !ok {
		t.Fatal("records before the tear lost")
	}
	if got.Count != 10 {
		t.Errorf("count = %d, want 10 (torn record must not apply)", got.Count)
	}
}

// TestTornJournalMidFileSharded is the same crash under the sharded
// layout: the tear hits one shard's journal; everything before it (in
// that journal and in the others) replays.
func TestTornJournalMidFileSharded(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenOptions(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	pa := pat(t, "alpha %string%", "alpha")
	pb := pat(t, "beta %string%", "beta")
	upsert(t, s, pa, pb)
	touch(t, s, pa, 4, t0.Add(time.Hour), "")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	tornJournal := journalName(s.shardFor("alpha").id)
	crash(s)

	f, err := os.OpenFile(filepath.Join(dir, tornJournal), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"upsert","pattern":{"id":"half-wr`)
	f.Close()

	r, err := OpenOptions(dir, Options{Shards: 4})
	if err != nil {
		t.Fatalf("torn shard journal must be tolerated: %v", err)
	}
	defer r.Close()
	got, ok := r.Get(pa.ID)
	if !ok || got.Count != 5 {
		t.Fatalf("alpha pattern: %+v %v, want count 5", got, ok)
	}
	if _, ok := r.Get(pb.ID); !ok {
		t.Fatal("beta pattern (other shard) lost")
	}
}

// TestShardCountGrowthCompactsOnOpen: a store that crashed with records
// in its journals and reopens under a LARGER shard count must compact
// immediately. If the old records were left in place, this session's
// appends would land in differently-numbered files for the same service
// (h mod Nnew vs h mod Nold), and a later name-ordered replay could
// apply a newer delete before the older upsert it deletes — resurrecting
// a purged pattern.
func TestShardCountGrowthCompactsOnOpen(t *testing.T) {
	// Pick a service whose new-layout journal (mod 4) sorts BEFORE its
	// old-layout journal (mod 3) — the order-inverting case.
	var svc string
	for i := 0; ; i++ {
		svc = fmt.Sprintf("svc%d", i)
		h := fnv.New32a()
		h.Write([]byte(svc))
		if h.Sum32()%4 < h.Sum32()%3 {
			break
		}
	}
	dir := t.TempDir()
	s1, err := OpenOptions(dir, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := pat(t, "doomed %string% event", svc)
	upsert(t, s1, p)
	if err := s1.Flush(); err != nil {
		t.Fatal(err)
	}
	crash(s1)

	s2, err := OpenOptions(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := journalSize(t, dir); got != 0 {
		t.Errorf("journals not collapsed after reopen with more shards: %d bytes left", got)
	}
	if _, ok := s2.Get(p.ID); !ok {
		t.Fatal("pattern lost across shard-count change")
	}
	if ids, err := s2.PurgeIDs(math.MaxInt64, t0.Add(time.Hour)); err != nil || len(ids) != 1 {
		t.Fatalf("PurgeIDs = %v, %v; want the one pattern", ids, err)
	}
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	crash(s2)

	s3, err := OpenOptions(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if _, ok := s3.Get(p.ID); ok {
		t.Fatal("deleted pattern resurrected by out-of-order journal replay")
	}
	if s3.Count() != 0 {
		t.Errorf("count after delete and reopen = %d, want 0", s3.Count())
	}
}

// TestReturnedPatternsAreDeepCopies: mutating a pattern returned by Get,
// All or ByService must not reach the store's live state.
func TestReturnedPatternsAreDeepCopies(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	p := pat(t, "hello %string% world", "svc")
	p.Examples = []string{"hello a world"}
	upsert(t, s, p)
	for name, fetch := range map[string]func() *patterns.Pattern{
		"Get":       func() *patterns.Pattern { g, _ := s.Get(p.ID); return g },
		"All":       func() *patterns.Pattern { return s.All()[0] },
		"ByService": func() *patterns.Pattern { return s.ByService("svc")[0] },
	} {
		got := fetch()
		got.AddExample("mutated example")
		got.Elements[0].Value = "mutated"
		fresh := fetch()
		if len(fresh.Examples) != 1 || fresh.Examples[0] != "hello a world" {
			t.Errorf("%s: store examples mutated through returned copy: %v", name, fresh.Examples)
		}
		if fresh.Elements[0].Value == "mutated" {
			t.Errorf("%s: store elements mutated through returned copy", name)
		}
	}
}

// TestReturnedPatternMutationRace mutates returned patterns while
// concurrent upserts merge into the same stored pattern; with deep
// copies this is race-free (run under -race).
func TestReturnedPatternMutationRace(t *testing.T) {
	s, _ := OpenOptions("", Options{Shards: 4})
	defer s.Close()
	base := pat(t, "racy %string% event", "svc")
	upsert(t, s, base)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			p := pat(t, "racy %string% event", "svc")
			p.Examples = []string{fmt.Sprintf("racy %d event", i)}
			if _, err := s.ApplyBatch("svc", []Op{{Kind: OpUpsert, Pattern: p}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			got, ok := s.Get(base.ID)
			if !ok {
				t.Error("pattern disappeared")
				return
			}
			got.AddExample("local mutation")
			got.Elements[0].Value = "local"
			for _, q := range s.ByService("svc") {
				q.Count++
			}
		}
	}()
	wg.Wait()
}
