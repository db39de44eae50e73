package token_test

import (
	"testing"

	"repro/internal/loghub"
	"repro/internal/token"
	"repro/internal/token/reference"
	"repro/internal/workload"
)

// The tests in this file are the safety net of the byte-slice redesign:
// the live scanner must produce, token for token, exactly what the
// frozen pre-redesign implementation (internal/token/reference) produces
// — same types, values, spacing and key=value keys — on realistic
// corpora and on arbitrary bytes. Any divergence is a redesign bug, not
// a reference bug: the reference is verbatim PR-5 code.

func refConfig(c token.Config) reference.Config {
	return reference.Config{UnpaddedTimes: c.UnpaddedTimes, PathFSM: c.PathFSM}
}

var parityConfigs = []token.Config{
	{},
	{UnpaddedTimes: true, PathFSM: true},
}

// assertParity scans msg with both implementations under cfg and fails
// on the first differing token. It also checks the new string entry
// point against the new byte entry point, so Scan and ScanBytes cannot
// drift apart either.
func assertParity(t *testing.T, msg string, cfg token.Config) {
	t.Helper()
	var rs reference.Scanner
	rs.Config = refConfig(cfg)
	want := reference.Enrich(rs.Scan(msg))

	s := token.NewScanner(cfg)
	defer s.Release()
	got := token.Enrich(s.ScanBytes([]byte(msg)))
	compareStreams(t, msg, cfg, got, want)

	s2 := token.NewScanner(cfg)
	defer s2.Release()
	compareStreams(t, msg, cfg, token.Enrich(s2.Scan(msg)), want)
}

func compareStreams(t *testing.T, msg string, cfg token.Config, got []token.Token, want []reference.Token) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("token count diverged (cfg %+v) on %q:\n new %d tokens %v\n ref %d tokens %v",
			cfg, msg, len(got), got, len(want), want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Type.String() != w.Type.String() ||
			g.Value() != w.Value ||
			g.SpaceBefore != w.SpaceBefore ||
			g.Key() != w.Key {
			t.Fatalf("token %d diverged (cfg %+v) on %q:\n new {type %s value %q space %t key %q}\n ref {type %s value %q space %t key %q}",
				i, cfg, msg,
				g.Type, g.Value(), g.SpaceBefore, g.Key(),
				w.Type, w.Value, w.SpaceBefore, w.Key)
		}
	}
}

// TestScanParityLoghub runs the differential check over every synthetic
// LogHub stand-in, raw and content views — the same corpora the
// accuracy experiments use.
func TestScanParityLoghub(t *testing.T) {
	for _, name := range loghub.Names() {
		ds, err := loghub.Generate(name, 400, 1)
		if err != nil {
			t.Fatalf("loghub.Generate(%q): %v", name, err)
		}
		for _, l := range ds.Lines {
			for _, cfg := range parityConfigs {
				assertParity(t, l.Raw, cfg)
				assertParity(t, l.Content, cfg)
			}
		}
	}
}

// TestScanParityWorkload runs the differential check over the fixed-seed
// multi-service corpus that seqbench measures.
func TestScanParityWorkload(t *testing.T) {
	gen := workload.New(workload.Config{Seed: 1})
	for i := 0; i < 2000; i++ {
		msg := gen.Next().Message
		for _, cfg := range parityConfigs {
			assertParity(t, msg, cfg)
		}
	}
}

// TestScanParityTimeGates runs the differential check over the strings
// that sit on either side of each class-table and layout-index decision,
// for every layout: a gate that wrongly rejects (or an index that tries
// too few layouts) diverges from the reference, which tries them all.
func TestScanParityTimeGates(t *testing.T) {
	for _, msg := range token.TimeGateCases() {
		for _, cfg := range parityConfigs {
			assertParity(t, msg, cfg)
		}
	}
}

// FuzzScanParity extends the differential check to arbitrary bytes: for
// any input whatsoever, the redesigned scanner and the frozen reference
// must emit identical token streams.
func FuzzScanParity(f *testing.F) {
	for _, seed := range []string{
		"Failed password for root from 10.0.0.1 port 22 ssh2",
		"Jun  2 03:04:05 host sshd[42]: Accepted publickey for git",
		"uid=0 EUID = 1000 path=/var/log/messages",
		"alice@example.com mailed www.example.co.uk.",
		"mac aa:bb:cc:dd:ee:ff ip ::1 hex 0xdeadbeef pct 99.5%",
		"GET https://host:8080/a/b?q=1 200 1234",
		"ends with dots... and bangs!!! and mixed?!.",
		"multi\nline\ntail",
		"\x00\x01\xff binary-ish",
		"10.0.0.1:514 1.2.3.4:0",
	} {
		f.Add(seed)
	}
	for _, seed := range token.TimeGateCases() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, msg string) {
		for _, cfg := range parityConfigs {
			assertParity(t, msg, cfg)
		}
	})
}
