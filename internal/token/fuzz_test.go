package token

import (
	"strings"
	"testing"
)

// FuzzScan asserts scanner robustness invariants over arbitrary input:
// no panic, token values are substrings of the message, and
// reconstruction never invents content.
func FuzzScan(f *testing.F) {
	for _, seed := range []string{
		"Failed password for root from 10.0.0.1 port 22 ssh2",
		"2021-09-01T12:00:00Z done",
		"mac aa:bb:cc:dd:ee:ff ip ::1 hex 0xdeadbeef",
		"a=b c=d [x] (y) \"z\"",
		"multi\nline\nmessage",
		"20171224-0:7:20:444|Step_LSC|30002312|onStandStepChanged 3579",
		"   leading spaces",
		"%percent% signs %everywhere",
		"\x00\x01\xff binary-ish",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, msg string) {
		for _, cfg := range []Config{{}, {UnpaddedTimes: true, PathFSM: true}} {
			s := Scanner{Config: cfg}
			tokens := s.ScanCopy(msg)
			for _, tok := range tokens {
				if tok.Type == TailAny {
					continue
				}
				if len(tok.Span) == 0 {
					t.Fatalf("empty token value in %q: %+v", msg, tokens)
				}
				if !strings.Contains(msg, tok.Value()) {
					t.Fatalf("token %q not a substring of %q", tok.Value(), msg)
				}
			}
			// Enrichment must be safe on any token stream.
			Enrich(tokens)
			// Reconstruction is bounded by the input plus separators.
			if r := Reconstruct(tokens); len(r) > len(msg)+len(tokens) {
				t.Fatalf("reconstruction grew: %q -> %q", msg, r)
			}
		}
	})
}

// normalizeSpacing maps a message onto the spacing the scanner can
// represent exactly: the first line only (later lines are matched by the
// TailAny marker, not reconstructed), every run of spaces and tabs
// collapsed to one space (SpaceBefore is a single bit), and no trailing
// whitespace (nothing follows for it to precede).
func normalizeSpacing(msg string) string {
	if i := strings.IndexAny(msg, "\n\r"); i >= 0 {
		msg = msg[:i]
	}
	var b strings.Builder
	b.Grow(len(msg))
	pendingSpace := false
	for i := 0; i < len(msg); i++ {
		c := msg[i]
		if c == ' ' || c == '\t' {
			pendingSpace = true
			continue
		}
		if pendingSpace {
			b.WriteByte(' ')
			pendingSpace = false
		}
		b.WriteByte(c)
	}
	return b.String()
}

// FuzzScanner asserts the paper's IsSpaceBefore contract byte-exactly:
// scanning a message and reconstructing it from the token stream must
// reproduce the input, for any input within the scanner's representable
// spacing (normalizeSpacing). A scanner that drops bytes, invents
// separators or misplaces a SpaceBefore bit breaks exported patterns
// (patterndb matches on exact spacing), and this is the target that
// catches it.
func FuzzScanner(f *testing.F) {
	for _, seed := range []string{
		"Failed password for root from 10.0.0.1 port 22 ssh2",
		"Connection closed by 10.0.0.1 [preauth]",
		"PacketResponder 2 for block blk_-123456 terminating",
		"Receiving block blk_99 src: /10.0.0.2:50010 dest: /10.0.0.3:50010",
		"20171224-0:7:20:444|Step_LSC|30002312|onStandStepChanged 3579",
		"  indented message with  double  gaps",
		"trailing spaces   ",
		"\ttabs\tbetween\twords\t",
		"a=b c=d [x] (y) \"z\" {w}",
		"mac aa:bb:cc:dd:ee:ff ip ::1 hex 0xdeadbeef pct 99.5%",
		"GET https://host:8080/a/b?q=1 200 1234",
		"multi\nline\ntail",
		"\x00\x01\xff binary\vbytes",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, msg string) {
		for _, cfg := range []Config{{}, {UnpaddedTimes: true, PathFSM: true}} {
			norm := normalizeSpacing(msg)
			s := Scanner{Config: cfg}
			tokens := s.ScanCopy(norm)
			if got := Reconstruct(tokens); got != norm {
				t.Fatalf("round trip broke (cfg %+v):\n in  %q\n out %q\n tokens %v", cfg, norm, got, tokens)
			}
		}
	})
}

// FuzzTimeFSM asserts the datetime FSM never claims text beyond the
// input and never returns a zero-length match.
func FuzzTimeFSM(f *testing.F) {
	f.Add("2021-09-01 12:00:00.123", false)
	f.Add("Jun  2 03:04:05", true)
	f.Add("0:7:20:444", true)
	for i, seed := range TimeGateCases() {
		f.Add(seed, i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, s string, unpadded bool) {
		for i := 0; i <= len(s) && i < 64; i++ {
			end, ok := matchTime([]byte(s), i, unpadded)
			if !ok {
				continue
			}
			if end <= i || end > len(s) {
				t.Fatalf("matchTime(%q, %d) = %d out of bounds", s, i, end)
			}
		}
	})
}
