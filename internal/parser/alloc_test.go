package parser

import (
	"testing"

	"repro/internal/testenv"
	"repro/internal/token"
)

// TestParseHitAllocBudget is the committed allocation budget of the
// parse-hit stage: scanning, enriching and matching a message whose
// pattern is registered must stay within one allocation per message
// (steady state, pooled scanner). bench/ prices the match step as
// parser.match_ns_per_msg.
func TestParseHitAllocBudget(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := New()
	p.Add(mustPattern(t, "%action% from %srcip% port %srcport%", "sshd"))
	msg := "accepted from 10.0.0.1 port 22"
	s := token.NewScanner(token.Config{})
	defer s.Release()
	if _, ok := p.Match("sshd", token.Enrich(s.Scan(msg))); !ok {
		t.Fatal("setup: message does not match")
	}
	avg := testing.AllocsPerRun(100, func() {
		toks := token.Enrich(s.Scan(msg))
		if _, ok := p.Match("sshd", toks); !ok {
			t.Fatal("match lost")
		}
	})
	if avg > 1 {
		t.Fatalf("parse hit allocates %.2f per message, budget is 1", avg)
	}
}

// TestMatchExactZeroAllocs pins the verbatim-cache fast path at zero
// allocations: a cache hit is two map lookups and two counter bumps.
func TestMatchExactZeroAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := New()
	pat := mustPattern(t, "%action% from %srcip% port %srcport%", "sshd")
	p.Add(pat)
	msg := "accepted from 10.0.0.1 port 22"
	p.CacheExact("sshd", msg, pat)
	avg := testing.AllocsPerRun(100, func() {
		if _, ok := p.MatchExact("sshd", msg); !ok {
			t.Fatal("cache lost")
		}
	})
	if avg != 0 {
		t.Fatalf("MatchExact allocates %.2f per message, want 0", avg)
	}
}
