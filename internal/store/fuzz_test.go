package store

import (
	"encoding/json"
	"testing"

	"repro/internal/patterns"
	"repro/internal/store/codec"
	"repro/internal/vfs"
)

// journalLine renders a record the way the store's journal does: one
// JSON object per newline-terminated line.
func journalLine(tb testing.TB, r record) []byte {
	tb.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		tb.Fatal(err)
	}
	return append(b, '\n')
}

// FuzzJournalReplay feeds arbitrary bytes to the store as an on-disk
// journal — the exact input a crashed or corrupted deployment presents
// at the next open. The replay contract: never panic, never refuse to
// open (damaged records are skipped, torn tails tolerated), and whatever
// state was recovered survives a clean close/reopen cycle intact.
func FuzzJournalReplay(f *testing.F) {
	p, err := patterns.FromText("connection closed by peer", "sshd")
	if err != nil {
		f.Fatal(err)
	}
	rec := journalLine(f, record{Op: "upsert", Pattern: p})
	touch := journalLine(f, record{Op: "touch", ID: p.ID, N: 3, E: 1})
	del := journalLine(f, record{Op: "delete", ID: p.ID})
	f.Add([]byte(""), false)
	f.Add(append(rec, touch...), false)
	f.Add(append(append(rec, del...), rec...), true)
	f.Add(rec[:len(rec)/2], false)                  // torn tail
	f.Add(append(touch, rec[:len(rec)-3]...), true) // valid then torn
	f.Add([]byte("{\"op\":\"upsert\"}\n{\"op\":\"touch\",\"id\":\"x\",\"n\":-1}\n"), false)
	f.Add([]byte("\x00\xff\xfe garbage\nnot json at all\n{}\n"), true)
	f.Add([]byte("{\"op\":\"upsert\",\"pattern\":{\"id\":\"\",\"service\":\"\"}}\n"), false)
	f.Fuzz(fuzzReplay)
}

// journalFrame renders a record as one v2 binary frame.
func journalFrame(tb testing.TB, r record) []byte {
	tb.Helper()
	b, err := codec.AppendRecord(nil, &r)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzJournalReplayV2 is FuzzJournalReplay over the binary v2 frame
// format (and v1/v2 mixtures within one file): arbitrary journal bytes
// must never panic the opener, never make it refuse to open, and the
// recovered state must survive a clean close/reopen cycle.
func FuzzJournalReplayV2(f *testing.F) {
	p, err := patterns.FromText("connection closed by peer", "sshd")
	if err != nil {
		f.Fatal(err)
	}
	rec := journalFrame(f, record{Op: "upsert", Pattern: p})
	touch := journalFrame(f, record{Op: "touch", ID: p.ID, N: 3, E: 1})
	del := journalFrame(f, record{Op: "delete", ID: p.ID})
	line := journalLine(f, record{Op: "upsert", Pattern: p})
	f.Add([]byte(""), false)
	f.Add(append(append(rec, touch...), del...), false)
	f.Add(append(rec, touch...), true)
	f.Add(rec[:len(rec)/2], false) // torn frame
	f.Add(append(touch, rec[:len(rec)-5]...), true)
	f.Add(append(line, touch...), false)                               // v1 then v2 in one file
	f.Add(append(rec, line...), false)                                 // v2 then v1 in one file
	f.Add([]byte("\x00\xff\xff\xff\xff\xff\xff\xff\xff\x7f"), false)   // huge length prefix
	f.Add([]byte{0x00, 0x03, 0xde, 0xad, 0xbe, 0xef, 't', 0, 0}, true) // checksum mismatch
	crc := append([]byte(nil), touch...)
	crc[len(crc)-1] ^= 0xff
	f.Add(crc, false)
	f.Fuzz(fuzzReplay)
}

// fuzzReplay is the shared body of the journal-replay fuzz targets.
func fuzzReplay(t *testing.T, data []byte, legacy bool) {
	fsys := vfs.NewFault()
	if err := fsys.MkdirAll("db"); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	name := "db/journal-000.wal"
	if legacy {
		name = "db/journal.wal" // pre-sharding layout
	}
	w, err := fsys.Create(name)
	if err != nil {
		t.Fatalf("create journal: %v", err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatalf("write journal: %v", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("sync journal: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}

	st, err := OpenOptions("db", Options{Shards: 2, FS: fsys})
	if err != nil {
		t.Fatalf("open over journal %q: %v", data, err)
	}
	n := len(st.All())
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st2, err := OpenOptions("db", Options{Shards: 2, FS: fsys})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if n2 := len(st2.All()); n2 != n {
		t.Fatalf("pattern count changed across clean close/reopen: %d -> %d", n, n2)
	}
	if err := st2.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}
