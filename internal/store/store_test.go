package store

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/patterns"
)

var t0 = time.Date(2021, 9, 1, 0, 0, 0, 0, time.UTC)

// crash simulates a process crash: journal handles are dropped with no
// Close and no compaction.
func crash(s *Store) {
	for _, sh := range s.shards {
		if sh.journal != nil {
			sh.jw.Flush()
			sh.journal.Close()
		}
	}
}

// journalSize sums the sizes of every journal file in dir (legacy and
// sharded layouts alike).
func journalSize(t testing.TB, dir string) int64 {
	t.Helper()
	var total int64
	names, err := filepath.Glob(filepath.Join(dir, "journal*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

func pat(t testing.TB, text, service string) *patterns.Pattern {
	t.Helper()
	p, err := patterns.FromText(text, service)
	if err != nil {
		t.Fatal(err)
	}
	p.Count = 1
	p.FirstSeen = t0
	p.LastMatched = t0
	return p
}

// upsert commits each pattern through ApplyBatch, one batch per pattern.
func upsert(t testing.TB, s *Store, ps ...*patterns.Pattern) {
	t.Helper()
	for _, p := range ps {
		if _, err := s.ApplyBatch(p.Service, []Op{{Kind: OpUpsert, Pattern: p}}); err != nil {
			t.Fatal(err)
		}
	}
}

// touch commits n matches of the stored pattern p through ApplyBatch.
func touch(t testing.TB, s *Store, p *patterns.Pattern, n int64, when time.Time, example string) {
	t.Helper()
	unknown, err := s.ApplyBatch(p.Service, []Op{{Kind: OpTouch, ID: p.ID, N: n, When: when, Example: example}})
	if err != nil {
		t.Fatal(err)
	}
	if len(unknown) > 0 {
		t.Fatalf("touch of unknown pattern %s", p.ID)
	}
}

func TestInMemoryCRUD(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := pat(t, "%action% from %srcip% port %srcport%", "sshd")
	upsert(t, s, p)
	got, ok := s.Get(p.ID)
	if !ok || got.Text() != p.Text() {
		t.Fatalf("Get: %v %v", got, ok)
	}
	if s.Count() != 1 {
		t.Fatalf("Count = %d", s.Count())
	}
	if ids, err := s.PurgeIDs(math.MaxInt64, t0.Add(time.Hour)); err != nil || len(ids) != 1 || ids[0] != p.ID {
		t.Fatalf("PurgeIDs = %v, %v; want [%s]", ids, err, p.ID)
	}
	if s.Count() != 0 {
		t.Fatalf("Count after delete = %d", s.Count())
	}
}

func TestUpsertMergesStatistics(t *testing.T) {
	s, _ := Open("")
	defer s.Close()

	a := pat(t, "hello %string%", "svc")
	a.Count = 3
	a.Examples = []string{"hello x"}
	upsert(t, s, a)

	b := pat(t, "hello %string%", "svc")
	b.Count = 4
	b.LastMatched = t0.Add(time.Hour)
	b.Examples = []string{"hello y", "hello x"}
	upsert(t, s, b)

	got, _ := s.Get(a.ID)
	if got.Count != 7 {
		t.Errorf("merged count = %d, want 7", got.Count)
	}
	if !got.LastMatched.Equal(t0.Add(time.Hour)) {
		t.Errorf("LastMatched = %v", got.LastMatched)
	}
	if len(got.Examples) != 2 {
		t.Errorf("examples = %v, want 2 unique", got.Examples)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p1 := pat(t, "%action% from %srcip% port %srcport%", "sshd")
	p2 := pat(t, "job %integer% finished in %float% s", "slurm")
	upsert(t, s, p1, p2)
	touch(t, s, p1, 10, t0.Add(time.Hour), "accepted from 1.2.3.4 port 22")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Count() != 2 {
		t.Fatalf("reopened count = %d, want 2", r.Count())
	}
	got, ok := r.Get(p1.ID)
	if !ok {
		t.Fatal("pattern lost across restart")
	}
	if got.Count != 11 {
		t.Errorf("count = %d, want 11", got.Count)
	}
	if got.Text() != p1.Text() {
		t.Errorf("text = %q, want %q", got.Text(), p1.Text())
	}
	if len(got.Examples) != 1 {
		t.Errorf("examples = %v", got.Examples)
	}
}

// TestCrashRecovery simulates a crash: journal written but no compaction
// (no Close). Reopening must replay the journal.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := pat(t, "crashy %string%", "svc")
	upsert(t, s, p)
	touch(t, s, p, 3, t0.Add(time.Minute), "")
	if err := s.Flush(); err != nil { // data reaches the journal file
		t.Fatal(err)
	}
	// Simulate crash: no Close, no Compact; just drop the handles.
	crash(s)

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, ok := r.Get(p.ID)
	if !ok {
		t.Fatal("journal replay lost the pattern")
	}
	if got.Count != 4 {
		t.Errorf("replayed count = %d, want 4", got.Count)
	}
}

// TestTornJournalTolerated: a half-written trailing record must not
// prevent opening.
func TestTornJournalTolerated(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	p := pat(t, "fine %string%", "svc")
	upsert(t, s, p)
	s.Flush()
	shardJournal := journalName(s.shardFor("svc").id)
	crash(s)

	f, err := os.OpenFile(filepath.Join(dir, shardJournal), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"upsert","pattern":{"id":"trunc`)
	f.Close()

	r, err := Open(dir)
	if err != nil {
		t.Fatalf("torn journal must be tolerated: %v", err)
	}
	defer r.Close()
	if _, ok := r.Get(p.ID); !ok {
		t.Fatal("intact records before the torn one must survive")
	}
}

func TestPurge(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	weak := pat(t, "weak %string%", "svc")
	weak.Count = 1
	weak.LastMatched = t0
	strong := pat(t, "strong %string%", "svc")
	strong.Count = 100
	strong.LastMatched = t0
	upsert(t, s, weak, strong)

	ids, err := s.PurgeIDs(5, t0.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != weak.ID {
		t.Fatalf("purged %v, want [%s]", ids, weak.ID)
	}
	if _, ok := s.Get(strong.ID); !ok {
		t.Error("strong pattern must survive purge")
	}
	if _, ok := s.Get(weak.ID); ok {
		t.Error("weak pattern must be purged")
	}
}

func TestByServiceAndServices(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	upsert(t, s, pat(t, "a %string%", "sshd"), pat(t, "b %string%", "sshd"), pat(t, "c %string%", "cron"))

	if got := s.Services(); len(got) != 2 || got[0] != "cron" || got[1] != "sshd" {
		t.Errorf("Services = %v", got)
	}
	if got := s.ByService("sshd"); len(got) != 2 {
		t.Errorf("ByService(sshd) = %d patterns", len(got))
	}
}

func TestCompactTruncatesJournal(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	for i := 0; i < 20; i++ {
		upsert(t, s, pat(t, fmt.Sprintf("event %d %%string%%", i), "svc"))
	}
	s.Flush()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if size := journalSize(t, dir); size != 0 {
		t.Errorf("journal size after compact = %d, want 0", size)
	}
	s.Close()

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Count() != 20 {
		t.Errorf("count after compact+reopen = %d, want 20", r.Count())
	}
}

// TestAutoCompaction drives enough journal records through the store to
// trigger the automatic snapshot + journal truncation.
func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := pat(t, "hot %integer% path", "svc")
	upsert(t, s, p)
	for i := 0; i < compactAfter; i++ {
		touch(t, s, p, 1, t0, "")
	}
	// The journals must have been truncated by the automatic compaction.
	s.Flush()
	if size := journalSize(t, dir); size > 1<<20 {
		t.Fatalf("journals grew to %d bytes; auto-compaction missing", size)
	}
	// Nothing lost: snapshot + journal replay give the full count.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, ok := r.Get(p.ID)
	if !ok || got.Count != int64(compactAfter)+1 {
		t.Fatalf("count after auto-compaction = %+v, %v", got, ok)
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s, _ := Open("")
	s.Close()
	if _, err := s.ApplyBatch("svc", []Op{{Kind: OpUpsert, Pattern: pat(t, "x %string%", "svc")}}); !errors.Is(err, ErrClosed) {
		t.Errorf("ApplyBatch on closed store = %v, want ErrClosed", err)
	}
	if _, err := s.PurgeIDs(1, t0); !errors.Is(err, ErrClosed) {
		t.Errorf("PurgeIDs on closed store = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double Close should be a no-op, got %v", err)
	}
}

func TestConcurrentUpserts(t *testing.T) {
	s, _ := Open(t.TempDir())
	defer s.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p := pat(t, fmt.Sprintf("event %d %%integer%%", i), fmt.Sprintf("svc%d", w))
				if _, err := s.ApplyBatch(p.Service, []Op{{Kind: OpUpsert, Pattern: p}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Count() != 800 {
		t.Fatalf("Count = %d, want 800", s.Count())
	}
}

// Property: for any set of distinct pattern texts, persist + reopen
// preserves the full set.
func TestPersistenceProperty(t *testing.T) {
	f := func(counts []uint8) bool {
		if len(counts) == 0 || len(counts) > 30 {
			return true
		}
		dir, err := os.MkdirTemp("", "storeprop")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		s, err := Open(dir)
		if err != nil {
			return false
		}
		want := make(map[string]int64)
		for i, c := range counts {
			p := pat(t, fmt.Sprintf("ev%d %%integer%% done", i), "svc")
			p.Count = int64(c)
			want[p.ID] = int64(c)
			if _, err := s.ApplyBatch(p.Service, []Op{{Kind: OpUpsert, Pattern: p}}); err != nil {
				return false
			}
		}
		if err := s.Close(); err != nil {
			return false
		}
		r, err := Open(dir)
		if err != nil {
			return false
		}
		defer r.Close()
		for id, c := range want {
			got, ok := r.Get(id)
			if !ok || got.Count != c {
				return false
			}
		}
		return r.Count() == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUpsert(b *testing.B) {
	s, _ := Open(b.TempDir())
	defer s.Close()
	ops := make([][]Op, 256)
	for i := range ops {
		ops[i] = []Op{{Kind: OpUpsert, Pattern: pat(b, fmt.Sprintf("event %d from %%srcip%%", i), "svc")}}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.ApplyBatch("svc", ops[i%len(ops)]); err != nil {
			b.Fatal(err)
		}
	}
}
