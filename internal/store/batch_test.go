package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/patterns"
	"repro/internal/store/codec"
	"repro/internal/testenv"
	"repro/internal/vfs"
)

// readJournal decodes every record of one journal file, returning the
// records and the format each was encoded in.
func readJournal(t testing.TB, data []byte) ([]record, []codec.Format) {
	t.Helper()
	rd := codec.NewReader(bytes.NewReader(data))
	var recs []record
	var fmts []codec.Format
	for {
		var r record
		f, err := rd.Next(&r)
		if errors.Is(err, io.EOF) {
			return recs, fmts
		}
		if err != nil {
			t.Fatalf("journal decode: %v", err)
		}
		recs = append(recs, r)
		fmts = append(fmts, f)
	}
}

// TestUpsertDoesNotMutateArgument is the regression test for the
// documented contract "not retained, not mutated": a batch upsert of a
// pattern without an ID must compute the ID for storage and journaling
// without writing it back through the caller's pattern.
func TestUpsertDoesNotMutateArgument(t *testing.T) {
	st, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p := pat(t, "session opened for %string%", "sshd")
	wantID := p.ID
	p.ID = ""
	upsert(t, st, p)
	if p.ID != "" {
		t.Fatalf("ApplyBatch wrote ID %q through the caller's pattern", p.ID)
	}
	got, ok := st.Get(wantID)
	if !ok {
		t.Fatalf("pattern not stored under computed ID %s", wantID)
	}
	if got.ID != wantID {
		t.Fatalf("stored ID = %q, want %q", got.ID, wantID)
	}
}

// TestApplyBatchCoalesces: N touches of one pattern in a batch sum
// their counts and keep the latest match time, the whole batch reaches
// the journal as one group append holding one record per applied op in
// the order given, and replaying that journal after a crash rebuilds
// exactly the in-memory state.
func TestApplyBatchCoalesces(t *testing.T) {
	fsys := vfs.NewFault()
	st, err := OpenOptions("db", Options{Shards: 1, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	a := pat(t, "connection from %ipv4%", "sshd")
	b := pat(t, "disconnect by %string%", "sshd")
	now := t0.Add(time.Minute)
	ops := []Op{
		{Kind: OpUpsert, Pattern: a},
		{Kind: OpTouch, ID: a.ID, N: 1, When: t0, Example: "connection from 10.0.0.1"},
		{Kind: OpUpsert, Pattern: b},
		{Kind: OpTouch, ID: a.ID, N: 2, When: now},
		{Kind: OpTouch, ID: b.ID, N: 5, When: t0},
		{Kind: OpTouch, ID: a.ID, N: 4, When: t0},
	}
	unknown, err := st.ApplyBatch("sshd", ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(unknown) != 0 {
		t.Fatalf("unexpected unknown IDs %v", unknown)
	}
	got, _ := st.Get(a.ID)
	if got.Count != a.Count+7 || !got.LastMatched.Equal(now) {
		t.Fatalf("a = count %d last %v, want count %d last %v", got.Count, got.LastMatched, a.Count+7, now)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := fsys.ReadFile("db/journal-000.wal")
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := readJournal(t, data)
	if len(recs) != len(ops) {
		t.Fatalf("journal holds %d records, want %d (one per op)", len(recs), len(ops))
	}
	for i, r := range recs {
		want := codec.OpTouch
		if ops[i].Kind == OpUpsert {
			want = codec.OpUpsert
		}
		if r.Op != want {
			t.Fatalf("journal record %d is %s, want %s (ops journal in the order given)", i, r.Op, want)
		}
	}
	snap := st.m.Snapshot()
	if snap.StoreBatchRecords != int64(len(ops)) {
		t.Fatalf("batch records = %d, want %d", snap.StoreBatchRecords, len(ops))
	}
	if snap.StoreBatchBytes == 0 {
		t.Fatal("batch bytes = 0, want > 0")
	}
	before := st.All()

	// Replay after a crash past the Flush barrier rebuilds the same state.
	crash(st)
	st2, err := OpenOptions("db", Options{Shards: 1, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	after := st2.All()
	if len(after) != len(before) {
		t.Fatalf("reopen holds %d patterns, want %d", len(after), len(before))
	}
	for i, p := range before {
		q := after[i]
		if q.ID != p.ID || q.Count != p.Count || !q.LastMatched.Equal(p.LastMatched) ||
			!q.FirstSeen.Equal(p.FirstSeen) || !slices.Equal(q.Examples, p.Examples) {
			t.Fatalf("replayed pattern %d = %+v, in-memory state was %+v", i, q, p)
		}
	}
}

// TestApplyBatchUnknownTouches: touches of IDs the store does not hold
// are returned (deduplicated) for re-seeding, everything else commits.
func TestApplyBatchUnknownTouches(t *testing.T) {
	st, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	a := pat(t, "known %string%", "svc")
	unknown, err := st.ApplyBatch("svc", []Op{
		{Kind: OpUpsert, Pattern: a},
		{Kind: OpTouch, ID: "missing-1", N: 1, When: t0},
		{Kind: OpTouch, ID: a.ID, N: 2, When: t0},
		{Kind: OpTouch, ID: "missing-1", N: 1, When: t0},
		{Kind: OpTouch, ID: "missing-2", N: 1, When: t0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(unknown) != 2 || unknown[0] != "missing-1" || unknown[1] != "missing-2" {
		t.Fatalf("unknown = %v, want [missing-1 missing-2]", unknown)
	}
	if got, _ := st.Get(a.ID); got.Count != a.Count+2 {
		t.Fatalf("known pattern count = %d, want %d", got.Count, a.Count+2)
	}
	if _, err := st.ApplyBatch("svc", nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestApplyBatchRejectsWholeBatch: a malformed op anywhere in a batch
// rejects the batch before any op applies. Applying the ops ahead of it
// in memory without journaling them would let a later Flush report as
// durable state that a crash loses.
func TestApplyBatchRejectsWholeBatch(t *testing.T) {
	st, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stored := pat(t, "already stored %string%", "svc")
	upsert(t, st, stored)
	ok := Op{Kind: OpUpsert, Pattern: pat(t, "fine %string%", "svc")}
	okTouch := Op{Kind: OpTouch, ID: stored.ID, N: 5, When: t0}
	for name, bad := range map[string]Op{
		"foreign service": {Kind: OpUpsert, Pattern: pat(t, "x %string%", "other")},
		"nil pattern":     {Kind: OpUpsert},
		"unknown kind":    {Kind: OpKind(99)},
	} {
		if _, err := st.ApplyBatch("svc", []Op{ok, okTouch, bad}); err == nil {
			t.Fatalf("%s: batch accepted", name)
		}
		if got := st.Count(); got != 1 {
			t.Fatalf("%s: Count = %d after a rejected batch, want 1", name, got)
		}
		if got, _ := st.Get(stored.ID); got.Count != stored.Count {
			t.Fatalf("%s: touch of a rejected batch applied: count %d, want %d", name, got.Count, stored.Count)
		}
	}
}

// TestApplyBatchClosed: a batch against a closed store fails with
// ErrClosed.
func TestApplyBatchClosed(t *testing.T) {
	st, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := st.ApplyBatch("svc", []Op{{Kind: OpTouch, ID: "x", N: 1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestJournalFormatV1 keeps the legacy format readable at the store
// layer: the committed v1 database (sharded JSON-line journals plus a
// pre-sharding journal.wal) opens with exactly the patterns the last v1
// writer read back from it, and everything the store writes afterwards
// is v2 frames.
func TestJournalFormatV1(t *testing.T) {
	const fixture = "../../testdata/legacy-v1"
	dir := t.TempDir()
	entries, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	sawV1 := false
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(fixture, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(e.Name(), "journal") {
			_, fmts := readJournal(t, data)
			for i, f := range fmts {
				if f != codec.FormatV1 {
					t.Fatalf("fixture %s record %d is %s, want v1", e.Name(), i, f)
				}
			}
			sawV1 = sawV1 || len(fmts) > 0
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !sawV1 {
		t.Fatal("fixture holds no v1 journal records")
	}
	raw, err := os.ReadFile("../../testdata/legacy-v1.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []struct {
		ID       string   `json:"id"`
		Service  string   `json:"service"`
		Count    int64    `json:"count"`
		Examples []string `json:"examples"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	check := func(st *Store) {
		t.Helper()
		for _, w := range want {
			got, ok := st.Get(w.ID)
			if !ok {
				t.Fatalf("pattern %s lost reading the v1 database", w.ID)
			}
			if got.Service != w.Service || got.Count != w.Count || !slices.Equal(got.Examples, w.Examples) {
				t.Fatalf("pattern %s = %s/%d %q, want %s/%d %q", w.ID,
					got.Service, got.Count, got.Examples, w.Service, w.Count, w.Examples)
			}
		}
	}

	st, err := OpenOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Count() != len(want) {
		t.Fatalf("v1 database opened with %d patterns, want %d", st.Count(), len(want))
	}
	check(st)
	p := pat(t, "after upgrade %string%", "svc")
	upsert(t, st, p)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "journal*"))
	if err != nil {
		t.Fatal(err)
	}
	recs := 0
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		got, fmts := readJournal(t, data)
		for i, f := range fmts {
			if f != codec.FormatV2 {
				t.Fatalf("%s record %d still %s after the v1 open", filepath.Base(name), i, f)
			}
		}
		recs += len(got)
	}
	if recs == 0 {
		t.Fatal("post-upgrade upsert did not reach any journal")
	}
	crash(st)
	st2, err := OpenOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	check(st2)
	if _, ok := st2.Get(p.ID); !ok {
		t.Fatal("pattern written after the v1 open lost on reopen")
	}
}

// TestMixedFormatReplay is a database a v2 build finds after a pre-v2
// build crashed and a v2 build crashed in turn: journals in v1, in v2
// and in both formats within one file. Replay must be lossless, and the
// open-time migration compaction must leave the directory writing pure
// v2 from then on.
func TestMixedFormatReplay(t *testing.T) {
	dir := t.TempDir()
	snapPat := pat(t, "from snapshot %string%", "alpha")
	snap, err := codec.EncodeSnapshot(&codec.Snapshot{Epoch: 0, Patterns: []*patterns.Pattern{snapPat}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	encode := func(enc func(testing.TB, record) []byte, recs ...record) []byte {
		var buf []byte
		for _, r := range recs {
			buf = append(buf, enc(t, r)...)
		}
		return buf
	}
	v1c, v2c := journalLine, journalFrame
	a := pat(t, "upserted via v1 %string%", "beta")
	b := pat(t, "upserted via v2 %string%", "gamma")
	c := pat(t, "upserted mid upgrade %string%", "delta")
	write := func(name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(journalName(0), encode(v1c,
		record{Op: codec.OpUpsert, Pattern: a},
		record{Op: codec.OpTouch, ID: a.ID, N: 3, When: t0.Add(time.Hour)}))
	write(journalName(1), encode(v2c,
		record{Op: codec.OpUpsert, Pattern: b},
		record{Op: codec.OpTouch, ID: snapPat.ID, N: 7, When: t0.Add(time.Hour)}))
	// One journal that switches format partway through: the writer was
	// upgraded between appends without a compaction in between.
	write(journalName(2), append(
		encode(v1c, record{Op: codec.OpUpsert, Pattern: c}),
		encode(v2c, record{Op: codec.OpTouch, ID: c.ID, N: 2, When: t0.Add(time.Hour)})...))

	st, err := OpenOptions(dir, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	check := func(st *Store) {
		t.Helper()
		for _, want := range []struct {
			id    string
			count int64
		}{
			{snapPat.ID, snapPat.Count + 7},
			{a.ID, a.Count + 3},
			{b.ID, b.Count},
			{c.ID, c.Count + 2},
		} {
			got, ok := st.Get(want.id)
			if !ok {
				t.Fatalf("pattern %s lost in mixed-format replay", want.id)
			}
			if got.Count != want.count {
				t.Fatalf("pattern %s count = %d, want %d", want.id, got.Count, want.count)
			}
		}
	}
	check(st)

	// The open compacted the mixed layout away; every record written
	// from here on is v2.
	upsert(t, st, pat(t, "post upgrade %string%", "beta"))
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "journal*"))
	if err != nil {
		t.Fatal(err)
	}
	recs := 0
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		got, fmts := readJournal(t, data)
		for i, f := range fmts {
			if f != codec.FormatV2 {
				t.Fatalf("%s record %d still %s after migration", filepath.Base(name), i, f)
			}
		}
		recs += len(got)
	}
	if recs == 0 {
		t.Fatal("post-upgrade upsert did not reach any journal")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenOptions(dir, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	check(st2)
}

// TestTouchPathAllocs gates the journal append path the engine runs: a
// one-touch ApplyBatch commit, encoded through the shard's reusable
// buffer. The budget of zero allocations per commit is the path's
// measured cost, so any per-commit allocation fails the gate.
func TestTouchPathAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	fsys := vfs.NewFault()
	st, err := OpenOptions("db", Options{Shards: 1, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p := pat(t, "accepted password for %string% from %ipv4%", "sshd")
	upsert(t, st, p)
	ops := []Op{{Kind: OpTouch, ID: p.ID, N: 1, When: t0.Add(time.Minute)}}
	commit := func() {
		if _, err := st.ApplyBatch("sshd", ops); err != nil {
			t.Fatal(err)
		}
	}
	for range 200 { // warm the encode buffer and the fault file
		commit()
	}
	if avg := testing.AllocsPerRun(500, commit); avg > 0 {
		t.Fatalf("one-touch commit allocates %.2f, want 0", avg)
	}
}
