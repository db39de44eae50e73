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
// documented contract "the argument is not retained": Upsert of a
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
	if err := st.Upsert(p); err != nil {
		t.Fatal(err)
	}
	if p.ID != "" {
		t.Fatalf("Upsert wrote ID %q through the caller's pattern", p.ID)
	}
	got, ok := st.Get(wantID)
	if !ok {
		t.Fatalf("pattern not stored under computed ID %s", wantID)
	}
	if got.ID != wantID {
		t.Fatalf("stored ID = %q, want %q", got.ID, wantID)
	}
}

// TestApplyBatchCoalesces: N touches of one pattern in a batch must
// collapse to one journal record, and the whole batch must reach the
// journal as one group append of upserts-then-touches.
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
		{Kind: OpUpsert, Pattern: b},
		{Kind: OpTouch, ID: a.ID, N: 1, When: t0, Example: "connection from 10.0.0.1"},
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
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := fsys.ReadFile("db/journal-000.wal")
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := readJournal(t, data)
	if len(recs) != 4 {
		t.Fatalf("journal holds %d records, want 4 (2 upserts + 2 coalesced touches)", len(recs))
	}
	if recs[0].Op != codec.OpUpsert || recs[1].Op != codec.OpUpsert || recs[2].Op != codec.OpTouch || recs[3].Op != codec.OpTouch {
		t.Fatalf("journal order wrong: %s %s %s %s", recs[0].Op, recs[1].Op, recs[2].Op, recs[3].Op)
	}
	for _, r := range recs[2:] {
		switch r.ID {
		case a.ID:
			if r.N != 7 || !r.When.Equal(now) || r.Example != "connection from 10.0.0.1" {
				t.Fatalf("coalesced touch of a = %+v, want n=7 when=%v first example kept", r, now)
			}
		case b.ID:
			if r.N != 5 {
				t.Fatalf("coalesced touch of b has n=%d, want 5", r.N)
			}
		default:
			t.Fatalf("unexpected touch of %s", r.ID)
		}
	}
	got, _ := st.Get(a.ID)
	if got.Count != a.Count+7 {
		t.Fatalf("a.Count = %d, want %d", got.Count, a.Count+7)
	}
	snap := st.m.Snapshot()
	if snap.StoreBatchRecords != 4 || snap.StoreBatchCoalesced != 2 {
		t.Fatalf("batch metrics records=%d coalesced=%d, want 4 and 2", snap.StoreBatchRecords, snap.StoreBatchCoalesced)
	}
	if snap.StoreBatchBytes == 0 {
		t.Fatal("batch bytes = 0, want > 0")
	}

	// The batch survives a crash after the Flush barrier.
	crash(st)
	st2, err := OpenOptions("db", Options{Shards: 1, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got2, ok := st2.Get(a.ID)
	if !ok || got2.Count != a.Count+7 {
		t.Fatalf("after crash+reopen a.Count = %+v, want count %d", got2, a.Count+7)
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
	// A touch can target an upsert earlier in the same batch; service
	// mismatches and nil patterns are rejected outright.
	if _, err := st.ApplyBatch("svc", []Op{{Kind: OpUpsert, Pattern: pat(t, "x %string%", "other")}}); err == nil {
		t.Fatal("cross-service upsert accepted")
	}
	if _, err := st.ApplyBatch("svc", []Op{{Kind: OpUpsert}}); err == nil {
		t.Fatal("nil-pattern upsert accepted")
	}
	if _, err := st.ApplyBatch("svc", nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestApplyBatchClosed mirrors the single-op methods' ErrClosed
// contract.
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
	if err := st.Upsert(p); err != nil {
		t.Fatal(err)
	}
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
	if err := st.Upsert(pat(t, "post upgrade %string%", "beta")); err != nil {
		t.Fatal(err)
	}
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

// TestTouchPathAllocs gates the journal append path: encoding through
// the shard's reusable buffer, a touch must stay under one allocation
// on average (the residue is bufio draining to the backing file every
// few dozen records — the old path paid json.Marshal plus a frame copy
// on every single touch).
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
	if err := st.Upsert(p); err != nil {
		t.Fatal(err)
	}
	when := t0.Add(time.Minute)
	for range 200 { // warm the encode buffer and the fault file
		if err := st.TouchIn("sshd", p.ID, 1, when, ""); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(500, func() {
		if err := st.TouchIn("sshd", p.ID, 1, when, ""); err != nil {
			t.Fatal(err)
		}
	})
	if avg >= 1 {
		t.Fatalf("touch path allocates %.2f per record, want < 1", avg)
	}
}
