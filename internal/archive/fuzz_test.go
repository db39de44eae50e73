package archive

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/vfs"
)

// sealedBlock encodes one small valid block — the starting point the
// block-file fuzzer mutates from.
func sealedBlock(tb testing.TB) []byte {
	tb.Helper()
	b := newMemBlock("sshd", 0, blockHint{})
	b.append("p-conn", 12*int64(1e9), [][]byte{[]byte("203.0.113.9"), []byte("22")})
	b.append("p-conn", 13*int64(1e9), [][]byte{[]byte("198.51.100.4"), []byte("2222")})
	b.append("p-auth", 14*int64(1e9), nil)
	var enc blockEncoder
	data, err := enc.appendBlock(nil, b)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzArchiveBlockReplay feeds arbitrary bytes to the archive as a
// published block file — the exact input a reopen sees after disk
// corruption. The contract mirrors the journal's FuzzJournalReplayV2:
// the reader never panics, decoding stops cleanly at the corruption
// with a *CorruptError (never a partial result), a corrupt block is
// reported by Blocks() but silently skipped by Query, and a clean
// reopen serves the identical record set.
func FuzzArchiveBlockReplay(f *testing.F) {
	valid := sealedBlock(f)
	f.Add([]byte(""))
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // torn payload
	f.Add(valid[:1])            // marker only
	bad := append([]byte(nil), valid...)
	bad[len(bad)-1] ^= 0xff // payload bit flip -> CRC mismatch
	f.Add(bad)
	hdr := append([]byte(nil), valid...)
	hdr[0] ^= 0xff // wrong marker
	f.Add(hdr)
	f.Add(append(append([]byte(nil), valid...), valid...)) // trailing second frame
	f.Add([]byte("\x00\xff\xff\xff\xff\xff\xff\xff\xff\x7f"))
	f.Add([]byte("\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The codec itself: an error must be a CorruptError, a success a
		// self-consistent block.
		dec, derr := decodeBlock(data)
		if derr != nil {
			var ce *CorruptError
			if !errors.As(derr, &ce) {
				t.Fatalf("decode error is not a CorruptError: %v", derr)
			}
		} else if dec.count != len(dec.ts) || len(dec.varOff) != dec.count+1 {
			t.Fatalf("decoded block inconsistent: count %d, %d timestamps, %d var offsets",
				dec.count, len(dec.ts), len(dec.varOff))
		}

		// The archive over it: open, list, query — never a panic, never
		// an error, never a record out of a corrupt file.
		fsys := vfs.NewFault()
		if err := fsys.MkdirAll("archive"); err != nil {
			t.Fatal(err)
		}
		w, err := fsys.Create("archive/b-0-00000001.blk")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		a, err := Open("archive", Options{FS: fsys, Shards: 2})
		if err != nil {
			t.Fatalf("open over block %q: %v", data, err)
		}
		blocks, err := a.Blocks()
		if err != nil {
			t.Fatalf("blocks: %v", err)
		}
		if len(blocks) != 1 {
			t.Fatalf("got %d blocks, want 1", len(blocks))
		}
		entries, err := a.Query(Query{})
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		if derr != nil {
			if blocks[0].Corrupt == "" {
				t.Fatalf("corrupt block not reported by Blocks()")
			}
			if len(entries) != 0 {
				t.Fatalf("corrupt block served %d records", len(entries))
			}
		} else {
			if blocks[0].Corrupt != "" {
				t.Fatalf("valid block reported corrupt: %s", blocks[0].Corrupt)
			}
			if len(entries) != dec.count {
				t.Fatalf("served %d records, block holds %d", len(entries), dec.count)
			}
		}

		// Reopen idempotence.
		a2, err := Open("archive", Options{FS: fsys, Shards: 2})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		entries2, err := a2.Query(Query{})
		if err != nil {
			t.Fatalf("requery: %v", err)
		}
		if len(entries2) != len(entries) {
			t.Fatalf("record count changed across reopen: %d -> %d", len(entries), len(entries2))
		}
	})
}

// FuzzArchiveRoundTrip drives the segment codec with structured
// inputs: records built from the fuzzed values are appended to up to
// four in-memory blocks of one bucket, sealed into one segment, decoded
// back, and compared field for field — encode followed by decode must
// be the identity on every input the append path accepts.
func FuzzArchiveRoundTrip(f *testing.F) {
	f.Add("sshd", int64(0), []byte("a\x00bb\x01ccc"), uint8(3))
	f.Add("", int64(-7200), []byte{}, uint8(1))
	f.Add("svc with spaces \x00\xff", int64(1767315845), []byte("\xde\xad\xbe\xef"), uint8(9))
	f.Add("k", int64(3600), []byte("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"), uint8(40))
	f.Fuzz(func(t *testing.T, service string, bucketSec int64, varData []byte, n uint8) {
		if n == 0 {
			n = 1
		}
		// Keep bucket*1e9 and the per-record offsets inside int64.
		bucketSec %= int64(1e9)
		bucket := (bucketSec / 60) * 60
		// n picks how many blocks (services) share the segment.
		blocks := make([]*memBlock, 1+int(n)%4)
		for i := range blocks {
			blocks[i] = newMemBlock(service+strings.Repeat("+", i), bucket, blockHint{})
		}
		type recModel struct {
			pat  string
			ns   int64
			vars [][]byte
		}
		pats := []string{"p-a", "p-b", "longer-pattern-id-\x00"}
		want := make([][]recModel, len(blocks))
		for i := 0; i < int(n); i++ {
			ns := bucket*int64(1e9) + int64(i)*int64(time.Millisecond)
			var vars [][]byte
			// Slice the fuzzed bytes into i+1 variable values.
			for j := 0; j <= i%3 && len(varData) > 0; j++ {
				cut := (i + j) % (len(varData) + 1)
				vars = append(vars, varData[:cut])
			}
			m := recModel{pat: pats[i%len(pats)], ns: ns, vars: vars}
			bi := i % len(blocks)
			want[bi] = append(want[bi], m)
			blocks[bi].append(m.pat, m.ns, m.vars)
		}
		var buf []byte
		var entries []footerEntry
		var enc blockEncoder
		for _, b := range blocks {
			if b.count == 0 {
				continue
			}
			off := len(buf)
			var err error
			if buf, err = enc.appendBlock(buf, b); err != nil {
				t.Fatalf("encode: %v", err)
			}
			entries = append(entries, footerEntry{service: b.service, count: b.count, minTS: b.minTS, maxTS: b.maxTS, off: int64(off), len: int64(len(buf) - off)})
		}
		data := appendFooter(buf, bucket, entries)
		footer, decoded, err := decodeSegment(data, false)
		if err != nil {
			t.Fatalf("decode of a freshly encoded segment: %v", err)
		}
		if footer.bucket != bucket || len(decoded) != len(entries) {
			t.Fatalf("segment identity lost: bucket %d with %d blocks, want %d with %d", footer.bucket, len(decoded), bucket, len(entries))
		}
		for bi, dec := range decoded {
			if dec.service != blocks[bi].service || dec.bucket != bucket || dec.count != len(want[bi]) {
				t.Fatalf("block %d identity lost: got (%q, %d, %d), want (%q, %d, %d)",
					bi, dec.service, dec.bucket, dec.count, blocks[bi].service, bucket, len(want[bi]))
			}
			var scratch [][]byte
			for i, m := range want[bi] {
				if dec.ts[i] != m.ns {
					t.Fatalf("block %d record %d timestamp: got %d, want %d", bi, i, dec.ts[i], m.ns)
				}
				if got := dec.pats[dec.pat[i]]; got != m.pat {
					t.Fatalf("block %d record %d pattern: got %q, want %q", bi, i, got, m.pat)
				}
				scratch = dec.varsAt(i, scratch[:0])
				if len(scratch) != len(m.vars) {
					t.Fatalf("block %d record %d has %d variables, want %d", bi, i, len(scratch), len(m.vars))
				}
				for j := range scratch {
					if !bytes.Equal(scratch[j], m.vars[j]) {
						t.Fatalf("block %d record %d variable %d: got %q, want %q", bi, i, j, scratch[j], m.vars[j])
					}
				}
			}
		}
	})
}

// validSegment encodes a small valid three-block segment — the starting
// point the segment fuzzer mutates from — and returns it with its
// footer entries.
func validSegment(tb testing.TB) ([]byte, []footerEntry) {
	tb.Helper()
	var buf []byte
	var entries []footerEntry
	var enc blockEncoder
	for i, svc := range []string{"cron", "nginx", "sshd"} {
		b := newMemBlock(svc, 0, blockHint{})
		b.append("p-conn", int64(10+i)*int64(1e9), [][]byte{[]byte("203.0.113.9"), []byte("22")})
		b.append("p-auth", int64(20+i)*int64(1e9), nil)
		off := len(buf)
		var err error
		if buf, err = enc.appendBlock(buf, b); err != nil {
			tb.Fatal(err)
		}
		entries = append(entries, footerEntry{service: svc, count: b.count, minTS: b.minTS, maxTS: b.maxTS, off: int64(off), len: int64(len(buf) - off)})
	}
	return appendFooter(buf, 0, entries), entries
}

// segmentWithFooter re-footers the blocks of a valid segment with
// entries edited by edit: a checksummed footer whose index lies.
func segmentWithFooter(tb testing.TB, edit func([]footerEntry)) []byte {
	tb.Helper()
	data, entries := validSegment(tb)
	last := entries[len(entries)-1]
	edit(entries)
	return appendFooter(append([]byte(nil), data[:last.off+last.len]...), 0, entries)
}

// FuzzArchiveSegmentReplay feeds arbitrary bytes to the archive as a
// published segment — the exact input a reopen sees after disk
// corruption: a truncated footer, a checksum mismatch, a block range
// past the end or overlapping its neighbour. The decoder either
// accepts the whole segment or reports a *CorruptError; Blocks() lists
// a corrupt segment as corrupt, Query never serves a record out of it,
// and a valid one is served whole, identically across a reopen.
func FuzzArchiveSegmentReplay(f *testing.F) {
	valid, _ := validSegment(f)
	f.Add([]byte(""))
	f.Add(valid)
	f.Add(valid[:len(valid)-1])  // torn trailer
	f.Add(valid[:len(valid)-12]) // truncated footer
	flip := append([]byte(nil), valid...)
	flip[10] ^= 0xff // block payload bit flip -> CRC mismatch
	f.Add(flip)
	flip = append([]byte(nil), valid...)
	flip[len(flip)-8] ^= 0xff // footer payload bit flip -> CRC mismatch
	f.Add(flip)
	f.Add(segmentWithFooter(f, func(e []footerEntry) { e[2].len += 100 }))     // length past the end
	f.Add(segmentWithFooter(f, func(e []footerEntry) { e[1].off += 1 << 20 })) // offset past the end
	f.Add(segmentWithFooter(f, func(e []footerEntry) { e[1].off-- }))          // overlapping ranges
	f.Add(segmentWithFooter(f, func(e []footerEntry) { e[0].service = "x" }))  // index disagrees with block
	f.Add(sealedBlock(f))                                                      // a bare block, no footer
	f.Fuzz(func(t *testing.T, data []byte) {
		_, dec, derr := decodeSegment(data, false)
		records := 0
		if derr != nil {
			var ce *CorruptError
			if !errors.As(derr, &ce) {
				t.Fatalf("decode error is not a CorruptError: %v", derr)
			}
		} else {
			for _, b := range dec {
				records += b.count
			}
		}

		fsys := vfs.NewFault()
		if err := fsys.MkdirAll("archive"); err != nil {
			t.Fatal(err)
		}
		w, err := fsys.Create("archive/s-0-00000001.seg")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		for reopen := 0; reopen < 2; reopen++ {
			a, err := Open("archive", Options{FS: fsys, Shards: 2})
			if err != nil {
				t.Fatalf("open over segment %q: %v", data, err)
			}
			blocks, err := a.Blocks()
			if err != nil {
				t.Fatalf("blocks: %v", err)
			}
			entries, err := a.Query(Query{})
			if err != nil {
				t.Fatalf("query: %v", err)
			}
			if derr != nil {
				if len(blocks) != 1 || blocks[0].Corrupt == "" {
					t.Fatalf("corrupt segment not reported by Blocks(): %+v", blocks)
				}
				if len(entries) != 0 {
					t.Fatalf("corrupt segment served %d records", len(entries))
				}
				continue
			}
			if len(blocks) != len(dec) {
				t.Fatalf("Blocks() lists %d blocks, segment holds %d", len(blocks), len(dec))
			}
			for _, b := range blocks {
				if b.Corrupt != "" {
					t.Fatalf("valid segment reported corrupt: %s", b.Corrupt)
				}
			}
			if len(entries) != records {
				t.Fatalf("served %d records, segment holds %d", len(entries), records)
			}
		}
	})
}
