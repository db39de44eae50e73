package codec

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/patterns"
)

func testPattern(tb testing.TB) *patterns.Pattern {
	tb.Helper()
	p, err := patterns.FromText("accepted password for %user% from %srcip% port %srcport%", "sshd")
	if err != nil {
		tb.Fatal(err)
	}
	p.Count = 42
	p.FirstSeen = time.Unix(1700000000, 123456789)
	p.LastMatched = time.Unix(1700003600, 0)
	p.Multiline = true
	p.AddExample("accepted password for root from 10.0.0.1 port 22")
	p.AddExample("accepted password for admin from 10.0.0.2 port 2222")
	return p
}

// testRecords covers every op and the encoding edge cases: nil
// pattern, zero times, negative counters, empty strings.
func testRecords(tb testing.TB) []Record {
	p := testPattern(tb)
	return []Record{
		{Op: OpUpsert, Pattern: p, E: 3},
		{Op: OpUpsert, Pattern: &patterns.Pattern{ID: "x", Service: "svc"}},
		{Op: OpUpsert, Pattern: nil},
		{Op: OpTouch, ID: p.ID, N: 7, When: time.Unix(1700000100, 999999999), Example: "hello world", E: 1},
		{Op: OpTouch, ID: "deadbeef", N: -1, When: time.Time{}, Example: ""},
		{Op: OpDelete, ID: p.ID, E: 9},
	}
}

func timesEqual(a, b time.Time) bool {
	if a.IsZero() || b.IsZero() {
		return a.IsZero() == b.IsZero()
	}
	return a.Equal(b)
}

func patternsEqual(a, b *patterns.Pattern) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.ID != b.ID || a.Service != b.Service || a.Count != b.Count || a.Multiline != b.Multiline {
		return false
	}
	if !timesEqual(a.FirstSeen, b.FirstSeen) || !timesEqual(a.LastMatched, b.LastMatched) {
		return false
	}
	if len(a.Elements) != len(b.Elements) || len(a.Examples) != len(b.Examples) {
		return false
	}
	for i := range a.Elements {
		if a.Elements[i] != b.Elements[i] {
			return false
		}
	}
	for i := range a.Examples {
		if a.Examples[i] != b.Examples[i] {
			return false
		}
	}
	return true
}

func recordsEqual(a, b *Record) bool {
	return a.Op == b.Op && a.ID == b.ID && a.N == b.N && a.Example == b.Example &&
		a.E == b.E && timesEqual(a.When, b.When) && patternsEqual(a.Pattern, b.Pattern)
}

// appendV1 renders r as a v1 journal line, the bytes databases written
// before v2 hold: the oracle the v2 encoding is checked against.
func appendV1(buf []byte, r *Record) ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return buf, err
	}
	return append(append(buf, b...), '\n'), nil
}

func encodeAll(tb testing.TB, f Format, recs []Record) []byte {
	tb.Helper()
	enc := AppendRecord
	if f == FormatV1 {
		enc = appendV1
	}
	var buf []byte
	for i := range recs {
		var err error
		if buf, err = enc(buf, &recs[i]); err != nil {
			tb.Fatalf("%s encode record %d: %v", f, i, err)
		}
	}
	return buf
}

func decodeAll(tb testing.TB, data []byte) ([]Record, []Format) {
	tb.Helper()
	rd := NewReader(bytes.NewReader(data))
	var out []Record
	var fmts []Format
	for {
		var r Record
		f, err := rd.Next(&r)
		if errors.Is(err, io.EOF) {
			return out, fmts
		}
		if err != nil {
			tb.Fatalf("decode record %d: %v", len(out), err)
		}
		out = append(out, r)
		fmts = append(fmts, f)
	}
}

// TestRoundTrip encodes the corpus in each format and checks the
// decoded records are identical to the originals.
func TestRoundTrip(t *testing.T) {
	recs := testRecords(t)
	for _, f := range []Format{FormatV1, FormatV2} {
		t.Run(string(f), func(t *testing.T) {
			got, fmts := decodeAll(t, encodeAll(t, f, recs))
			if len(got) != len(recs) {
				t.Fatalf("decoded %d records, want %d", len(got), len(recs))
			}
			for i := range recs {
				if fmts[i] != f {
					t.Errorf("record %d decoded as %s, want %s", i, fmts[i], f)
				}
				if !recordsEqual(&got[i], &recs[i]) {
					t.Errorf("record %d mismatch:\n got %+v\nwant %+v", i, got[i], recs[i])
				}
			}
		})
	}
}

// TestDifferentialOracle is the v1-as-oracle check: the same record
// encoded in each format must decode to the same value, so v2 can never
// silently drop or distort a field v1 preserves.
func TestDifferentialOracle(t *testing.T) {
	recs := testRecords(t)
	v1, _ := decodeAll(t, encodeAll(t, FormatV1, recs))
	v2, _ := decodeAll(t, encodeAll(t, FormatV2, recs))
	if len(v1) != len(v2) {
		t.Fatalf("v1 decoded %d records, v2 %d", len(v1), len(v2))
	}
	for i := range v1 {
		if !recordsEqual(&v1[i], &v2[i]) {
			t.Errorf("record %d diverges:\n v1 %+v\n v2 %+v", i, v1[i], v2[i])
		}
	}
}

// TestMixedStream interleaves formats in one stream, as a journal that
// a pre-v2 build started and a v2 build appended to holds them.
func TestMixedStream(t *testing.T) {
	recs := testRecords(t)
	var data []byte
	want := []Format{FormatV1, FormatV2, FormatV1, FormatV2, FormatV2, FormatV1}
	for i := range recs {
		data = append(data, encodeAll(t, want[i], recs[i:i+1])...)
	}
	got, fmts := decodeAll(t, data)
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if fmts[i] != want[i] {
			t.Errorf("record %d decoded as %s, want %s", i, fmts[i], want[i])
		}
		if !recordsEqual(&got[i], &recs[i]) {
			t.Errorf("record %d mismatch", i)
		}
	}
}

// TestTornTail truncates a two-record stream at every byte boundary:
// the reader must never panic, must keep at most the records fully
// written, and must keep the first record whenever the tear is past it.
func TestTornTail(t *testing.T) {
	recs := testRecords(t)[:2]
	for _, f := range []Format{FormatV1, FormatV2} {
		data := encodeAll(t, f, recs)
		first := encodeAll(t, f, recs[:1])
		for cut := 0; cut <= len(data); cut++ {
			rd := NewReader(bytes.NewReader(data[:cut]))
			n := 0
			for {
				var r Record
				if _, err := rd.Next(&r); err != nil {
					if !errors.Is(err, io.EOF) {
						var ce *CorruptError
						if !errors.As(err, &ce) {
							t.Fatalf("%s cut %d: error is not CorruptError: %v", f, cut, err)
						}
					}
					break
				}
				n++
			}
			if n > 2 {
				t.Fatalf("%s cut %d: decoded %d records from a 2-record stream", f, cut, n)
			}
			if cut >= len(first) && n < 1 {
				t.Fatalf("%s cut %d: first record complete but not decoded", f, cut)
			}
		}
	}
}

// TestCorruption flips every byte of a v2 stream in turn: decoding must
// never panic and the CRC must catch payload damage (a flip inside a
// frame payload can never yield a successfully decoded record with
// that frame's content trusted — it either fails or, when the flip is
// in the header making the frame unreadable, stops the stream).
func TestCorruption(t *testing.T) {
	recs := testRecords(t)
	data := encodeAll(t, FormatV2, recs)
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x5a
		rd := NewReader(bytes.NewReader(mut))
		n := 0
		for {
			var r Record
			if _, err := rd.Next(&r); err != nil {
				break
			}
			n++
		}
		if n > len(recs) {
			t.Fatalf("flip at %d: decoded %d records from a %d-record stream", i, n, len(recs))
		}
	}
}

// TestWhitespaceTolerance mirrors the old JSON stream decoder, which
// skipped whitespace between records.
func TestWhitespaceTolerance(t *testing.T) {
	recs := testRecords(t)[:1]
	data := append([]byte("\n\n  \t\r\n"), encodeAll(t, FormatV1, recs)...)
	data = append(data, '\n', '\n')
	data = append(data, encodeAll(t, FormatV2, recs)...)
	got, _ := decodeAll(t, data)
	if len(got) != 2 {
		t.Fatalf("decoded %d records, want 2", len(got))
	}
}

// TestGarbagePrefix: a record starting with neither '{' nor the v2
// marker is a tear, not a panic.
func TestGarbagePrefix(t *testing.T) {
	rd := NewReader(bytes.NewReader([]byte("garbage")))
	var r Record
	if _, err := rd.Next(&r); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("want CorruptError, got %v", err)
	}
}

func TestEncodeUnknownOp(t *testing.T) {
	if _, err := AppendRecord(nil, &Record{Op: "weird"}); err == nil {
		t.Fatal("v2 encode of unknown op succeeded")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	p := testPattern(t)
	data, err := EncodeSnapshot(&Snapshot{Epoch: 5, Patterns: []*patterns.Pattern{p}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if s.Epoch != 5 || len(s.Patterns) != 1 || !patternsEqual(s.Patterns[0], p) {
		t.Fatalf("snapshot round trip mismatch: %+v", s)
	}
	// Pre-epoch layout: a bare array.
	s2, err := DecodeSnapshot([]byte(`[{"id":"a","service":"s","elements":[],"count":1,"first_seen":"0001-01-01T00:00:00Z","last_matched":"0001-01-01T00:00:00Z"}]`))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Epoch != 0 || len(s2.Patterns) != 1 {
		t.Fatalf("legacy snapshot: %+v", s2)
	}
	if _, err := DecodeSnapshot([]byte("not json")); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

// TestV2EncodeAllocs pins the batch encoder's hot-path property: with a
// warm buffer, appending a touch record allocates nothing.
func TestV2EncodeAllocs(t *testing.T) {
	r := Record{Op: OpTouch, ID: "0123456789abcdef0123456789abcdef01234567", N: 12, When: time.Unix(1700000000, 0), Example: "accepted password for root from 10.0.0.1 port 22", E: 4}
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = AppendRecord(buf[:0], &r)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("v2 AppendRecord allocates %.1f times per record, want 0", allocs)
	}
}
