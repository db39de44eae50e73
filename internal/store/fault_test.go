package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/patterns"
	"repro/internal/vfs"
)

// openFault opens a store on a fault filesystem.
func openFault(t *testing.T, f *vfs.Fault, shards int) *Store {
	t.Helper()
	st, err := OpenOptions("db", Options{Shards: shards, FS: f})
	if err != nil {
		t.Fatalf("OpenOptions: %v", err)
	}
	return st
}

func mkPattern(t *testing.T, service, text string) *patterns.Pattern {
	t.Helper()
	p, err := patterns.FromText(text, service)
	if err != nil {
		t.Fatalf("FromText(%q): %v", text, err)
	}
	return p
}

// TestStatFailureRefusesOpen is the regression test for the replayJournals
// bug: a legacy journal whose existence cannot be determined (Stat fails
// with something other than not-exist) must fail the open — before the
// fix the store opened empty and silently dropped the journal's records.
func TestStatFailureRefusesOpen(t *testing.T) {
	f := vfs.NewFault()
	f.FailStat("db/journal.wal", errors.New("permission denied"))
	_, err := OpenOptions("db", Options{Shards: 1, FS: f})
	if err == nil {
		t.Fatal("open succeeded with an unstattable legacy journal")
	}
	if !strings.Contains(err.Error(), "stat legacy journal") {
		t.Fatalf("open error = %v, want a stat legacy journal error", err)
	}
}

// TestFlushSurfacesWriteAndSyncFailures checks that a failed journal
// flush or fsync is returned to the caller and counted in StoreIOErrors,
// and that the store keeps working once the fault clears.
func TestFlushSurfacesWriteAndSyncFailures(t *testing.T) {
	f := vfs.NewFault()
	st := openFault(t, f, 1)
	m := obs.New()
	st.SetMetrics(m)
	upsert(t, st, mkPattern(t, "svc", "hello world"))

	f.FailWrite(1)
	if err := st.Flush(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Flush with failing write = %v, want ErrInjected", err)
	}
	if got := m.StoreIOErrors.Value(); got != 1 {
		t.Fatalf("StoreIOErrors after write failure = %d, want 1", got)
	}

	// bufio dropped its buffer on the failed flush; new mutations must
	// still reach the journal once the disk recovers.
	upsert(t, st, mkPattern(t, "svc", "second pattern"))

	f.FailSync(1)
	if err := st.Flush(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Flush with failing sync = %v, want ErrInjected", err)
	}
	if got := m.StoreIOErrors.Value(); got != 2 {
		t.Fatalf("StoreIOErrors after sync failure = %d, want 2", got)
	}

	if err := st.Flush(); err != nil {
		t.Fatalf("Flush after faults cleared: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2 := openFault(t, f, 1)
	if got := st2.Count(); got != 2 {
		t.Fatalf("patterns after reopen = %d, want 2", got)
	}
}

// TestCompactSurfacesSnapshotFailure checks that a snapshot that cannot
// be written (ENOSPC) fails Compact, counts an I/O error, leaves the old
// snapshot in place and no partial temporary file behind, and the store
// recovers once space is available.
func TestCompactSurfacesSnapshotFailure(t *testing.T) {
	f := vfs.NewFault()
	st := openFault(t, f, 2)
	m := obs.New()
	st.SetMetrics(m)
	for i := 0; i < 4; i++ {
		upsert(t, st, mkPattern(t, fmt.Sprintf("svc%d", i), "alpha beta gamma"))
	}
	if err := st.Compact(); err != nil {
		t.Fatalf("first Compact: %v", err)
	}

	upsert(t, st, mkPattern(t, "svc9", "delta epsilon"))
	f.SetDiskBudget(10) // not enough for the snapshot
	if err := st.Compact(); !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("Compact over budget = %v, want ErrNoSpace", err)
	}
	if m.StoreIOErrors.Value() == 0 {
		t.Fatal("snapshot failure not counted in StoreIOErrors")
	}
	if err := f.Stat("db/patterns.json.tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Stat(patterns.json.tmp) after failed Compact = %v, want ErrNotExist", err)
	}

	f.SetDiskBudget(-1)
	if err := st.Compact(); err != nil {
		t.Fatalf("Compact after space freed: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st2 := openFault(t, f, 2)
	if got := st2.Count(); got != 5 {
		t.Fatalf("patterns after recovery = %d, want 5", got)
	}
}

// TestPurgeReportsRemovalsOnFailedAppend fails the journal's bufio
// drain partway through a purge. Every pattern the purge took out of
// memory must be in the returned IDs, including the one whose delete
// record could not be appended: the engine evicts exactly those IDs
// from its parser, and a pattern left there would be touched unknown by
// the next batch and re-seeded, silently undoing the purge.
func TestPurgeReportsRemovalsOnFailedAppend(t *testing.T) {
	f := vfs.NewFault()
	st := openFault(t, f, 1)
	// Enough patterns that their delete records overflow the 4 KiB bufio
	// buffer, so the purge's own appends drain it to the disk.
	ops := make([]Op, 0, 400)
	for i := 0; i < 400; i++ {
		ops = append(ops, Op{Kind: OpUpsert, Pattern: mkPattern(t, "svc", fmt.Sprintf("event %d done", i))})
	}
	if _, err := st.ApplyBatch("svc", ops); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if err := st.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	before := st.All()
	f.SetDiskBudget(0) // the next bufio drain fails
	removed, err := st.PurgeIDs(math.MaxInt64, time.Now().Add(time.Hour))
	if !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("PurgeIDs = %v, want ErrNoSpace", err)
	}
	if st.Count() == 0 {
		t.Fatal("purge ran to completion; the injected failure did not land mid-purge")
	}
	reported := make(map[string]bool, len(removed))
	for _, id := range removed {
		reported[id] = true
	}
	for _, p := range before {
		if _, ok := st.Get(p.ID); !ok && !reported[p.ID] {
			t.Fatalf("pattern %s removed from the store but missing from the returned IDs (%d reported, %d removed)",
				p.ID, len(removed), len(before)-st.Count())
		}
	}
	if len(removed) != len(before)-st.Count() {
		t.Fatalf("returned %d IDs, store lost %d patterns", len(removed), len(before)-st.Count())
	}
}

// TestTornJournalTailTolerated writes a journal whose final record is
// torn mid-byte (as a crash during an append would leave it) and checks
// replay keeps every whole record and never errors.
func TestTornJournalTailTolerated(t *testing.T) {
	f := vfs.NewFault()
	st := openFault(t, f, 1)
	upsert(t, st, mkPattern(t, "svc", "first message here"))
	if err := st.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	// Tear the tail: append half a record by hand.
	w, err := f.OpenAppend("db/journal-000.wal")
	if err != nil {
		t.Fatalf("OpenAppend: %v", err)
	}
	w.Write([]byte(`{"op":"upsert","pattern":{"service":"sv`))
	w.Sync()
	w.Close()

	st2 := openFault(t, f, 1)
	if got := st2.Count(); got != 1 {
		t.Fatalf("patterns after torn tail = %d, want 1", got)
	}
}

// TestStaleEpochRecordsSkipped is the regression test for the
// double-apply window: a crash after the compaction snapshot is renamed
// into place but before the journals are truncated leaves journal
// records on disk that the snapshot already folded in. Replay must skip
// them — their epoch predates the snapshot's.
func TestStaleEpochRecordsSkipped(t *testing.T) {
	f := vfs.NewFault()
	st := openFault(t, f, 1)
	p := mkPattern(t, "svc", "request took ms")
	upsert(t, st, p)
	touch(t, st, p, 4, time.Now(), "")
	base, ok := st.Get(p.ID)
	if !ok {
		t.Fatal("pattern missing before close")
	}
	if err := st.Close(); err != nil { // snapshot now carries epoch 1
		t.Fatalf("Close: %v", err)
	}

	// Simulate the crash window: re-append the pre-compaction touch
	// record (epoch 0, E omitted) as if the truncation never happened.
	w, err := f.OpenAppend("db/journal-000.wal")
	if err != nil {
		t.Fatalf("OpenAppend: %v", err)
	}
	fmt.Fprintf(w, "{\"op\":\"touch\",\"id\":%q,\"n\":4}\n", p.ID)
	w.Sync()
	w.Close()

	st2 := openFault(t, f, 1)
	got, ok := st2.Get(p.ID)
	if !ok {
		t.Fatal("pattern lost")
	}
	if got.Count != base.Count {
		t.Fatalf("count after stale-epoch replay = %d, want %d (record double-applied)", got.Count, base.Count)
	}
	// The stale record still forced a cleaning compaction: the journal
	// must be empty again.
	if err := st2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := f.ReadFile("db/journal-000.wal")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(data) != 0 {
		t.Fatalf("journal not cleaned after stale replay: %q", data)
	}
}

// TestLegacyBareArraySnapshotLoads checks the pre-epoch snapshot format
// (a bare JSON array) still opens, as epoch 0.
func TestLegacyBareArraySnapshotLoads(t *testing.T) {
	f := vfs.NewFault()
	f.MkdirAll("db")
	p := mkPattern(t, "svc", "legacy snapshot entry")
	p.Count = 3
	b, err := json.Marshal([]*patterns.Pattern{p})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	w, err := f.Create("db/patterns.json")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	w.Write(b)
	w.Sync()
	w.Close()

	st := openFault(t, f, 2)
	got, ok := st.Get(p.ID)
	if !ok {
		t.Fatal("legacy snapshot pattern not loaded")
	}
	if got.Count != 3 {
		t.Fatalf("count = %d, want 3", got.Count)
	}
}
