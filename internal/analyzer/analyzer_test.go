package analyzer

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/patterns"
	"repro/internal/token"
)

var testNow = time.Date(2021, 9, 1, 12, 0, 0, 0, time.UTC)

func mine(t *testing.T, service string, cfg Config, msgs ...string) []*patterns.Pattern {
	t.Helper()
	a := New(service, cfg)
	var s token.Scanner
	for _, m := range msgs {
		a.Add(token.Enrich(s.ScanCopy(m)), m)
	}
	return a.Patterns(testNow)
}

func texts(ps []*patterns.Pattern) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Text()
	}
	return out
}

func TestAnalyzeTypedVariables(t *testing.T) {
	got := mine(t, "sshd", Config{},
		"Failed password for root from 10.0.0.1 port 22",
		"Failed password for root from 10.0.0.2 port 4711",
		"Failed password for root from 172.16.1.9 port 2222",
	)
	if len(got) != 1 {
		t.Fatalf("want 1 pattern, got %v", texts(got))
	}
	want := "Failed password for root from %srcip% port %srcport%"
	if got[0].Text() != want {
		t.Fatalf("pattern = %q, want %q", got[0].Text(), want)
	}
	if got[0].Count != 3 {
		t.Errorf("count = %d, want 3", got[0].Count)
	}
	if len(got[0].Examples) != 3 {
		t.Errorf("examples = %v, want 3", got[0].Examples)
	}
}

func TestAnalyzeLiteralMerge(t *testing.T) {
	got := mine(t, "app", Config{},
		"open /var/a failed",
		"open /var/a failed",
		"open /var/b failed",
		"open /var/b failed",
	)
	if len(got) != 1 {
		t.Fatalf("want 1 merged pattern, got %v", texts(got))
	}
	if want := "open %string% failed"; got[0].Text() != want {
		t.Fatalf("pattern = %q, want %q", got[0].Text(), want)
	}
	if got[0].Count != 4 {
		t.Errorf("count = %d, want 4", got[0].Count)
	}
}

// TestAnalyzeFewExamplesLimitation pins the paper's §IV limitation:
// patterns cannot be found from only one or two examples; the messages
// surface as word-for-word patterns instead.
func TestAnalyzeFewExamplesLimitation(t *testing.T) {
	got := mine(t, "app", Config{},
		"open /var/a failed",
		"open /var/b failed",
	)
	if len(got) != 2 {
		t.Fatalf("two lone examples must stay word-for-word, got %v", texts(got))
	}
	for _, p := range got {
		if strings.Contains(p.Text(), "%") {
			t.Errorf("unexpected variable in %q", p.Text())
		}
	}
}

func TestAnalyzeConstantFolding(t *testing.T) {
	got := mine(t, "web", Config{FoldConstants: true},
		"listening on port 443",
		"listening on port 443",
		"listening on port 443",
	)
	if len(got) != 1 {
		t.Fatalf("got %v", texts(got))
	}
	if want := "listening on port 443"; got[0].Text() != want {
		t.Fatalf("constant integer should fold to literal: %q, want %q", got[0].Text(), want)
	}
	// Without folding the position stays a variable (original Sequence
	// behaviour, limitation 4).
	got = mine(t, "web", Config{FoldConstants: false, MinGroupMessages: 3, MinDistinctValues: 2},
		"listening on port 443",
		"listening on port 443",
		"listening on port 443",
	)
	if want := "listening on port %port%"; got[0].Text() != want {
		t.Fatalf("unfolded pattern = %q, want %q", got[0].Text(), want)
	}
}

func TestAnalyzeSeparatesTokenCounts(t *testing.T) {
	got := mine(t, "app", Config{},
		"service started",
		"service started",
		"service stopped after 5 seconds",
		"service stopped after 9 seconds",
		"service stopped after 7 seconds",
	)
	if len(got) != 2 {
		t.Fatalf("want 2 patterns (different token counts), got %v", texts(got))
	}
}

func TestAnalyzeKeyValueNaming(t *testing.T) {
	got := mine(t, "audit", Config{},
		"login uid=1001 ok",
		"login uid=1002 ok",
		"login uid=1003 ok",
	)
	if len(got) != 1 {
		t.Fatalf("got %v", texts(got))
	}
	if want := "login uid=%uid% ok"; got[0].Text() != want {
		t.Fatalf("pattern = %q, want %q", got[0].Text(), want)
	}
}

func TestAnalyzeMultiline(t *testing.T) {
	got := mine(t, "java", Config{},
		"Exception in thread 8 occurred\n  at Foo.bar(Foo.java:17)",
		"Exception in thread 12 occurred\n  at Baz.qux(Baz.java:3)\n  more",
		"Exception in thread 99 occurred\n  at A.b(C.java:1)",
	)
	if len(got) != 1 {
		t.Fatalf("got %v", texts(got))
	}
	p := got[0]
	if !p.Multiline {
		t.Error("pattern should be marked multiline")
	}
	if !strings.HasSuffix(p.Text(), "%tailany%") {
		t.Errorf("pattern text should end with the tail marker: %q", p.Text())
	}
}

func TestAnalyzeDistinctEventsStayDistinct(t *testing.T) {
	got := mine(t, "sshd", Config{},
		"Accepted password for alice from 10.0.0.1 port 22",
		"Accepted password for bob from 10.0.0.2 port 23",
		"Accepted password for carol from 10.0.0.3 port 24",
		"Connection closed by 10.0.0.1",
		"Connection closed by 10.0.0.2",
		"Connection closed by 10.0.0.9",
	)
	if len(got) != 2 {
		t.Fatalf("want 2 patterns, got %v", texts(got))
	}
}

// TestPatternsMatchOwnExamples is the analyzer's central invariant: every
// discovered pattern must match every one of its own example messages when
// the example is re-scanned and parsed.
func TestPatternsMatchOwnExamples(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	users := []string{"alice", "bob", "carol", "dave", "eve"}
	var msgs []string
	for i := 0; i < 200; i++ {
		switch rng.Intn(4) {
		case 0:
			msgs = append(msgs, fmt.Sprintf("Accepted password for %s from 10.0.%d.%d port %d",
				users[rng.Intn(len(users))], rng.Intn(256), rng.Intn(256), 1024+rng.Intn(60000)))
		case 1:
			msgs = append(msgs, fmt.Sprintf("session opened for user %s(uid=%d)",
				users[rng.Intn(len(users))], rng.Intn(2000)))
		case 2:
			msgs = append(msgs, fmt.Sprintf("error: timeout after %d ms contacting node%02d.example.com",
				rng.Intn(10000), rng.Intn(30)))
		case 3:
			msgs = append(msgs, fmt.Sprintf("disk usage %d.%d%% on /dev/sd%c",
				rng.Intn(100), rng.Intn(10), 'a'+rune(rng.Intn(4))))
		}
	}
	got := mine(t, "mixed", Config{}, msgs...)
	if len(got) == 0 {
		t.Fatal("no patterns mined")
	}
	var s token.Scanner
	for _, p := range got {
		for _, ex := range p.Examples {
			if _, ok := p.Match(token.Enrich(s.Scan(ex))); !ok {
				t.Errorf("pattern %q does not match its own example %q", p.Text(), ex)
			}
		}
	}
}

func TestAnalyzerAccounting(t *testing.T) {
	a := New("svc", Config{})
	var s token.Scanner
	for i := 0; i < 10; i++ {
		m := fmt.Sprintf("event number %d fired", i)
		a.Add(token.Enrich(s.ScanCopy(m)), m)
	}
	if a.MessageCount() != 10 {
		t.Errorf("MessageCount = %d, want 10", a.MessageCount())
	}
	if a.NodeCount() == 0 {
		t.Error("NodeCount should be positive")
	}
	if a.Service() != "svc" {
		t.Errorf("Service = %q", a.Service())
	}
}

func TestAnalyzeEmptyInput(t *testing.T) {
	a := New("svc", Config{})
	if got := a.Patterns(testNow); len(got) != 0 {
		t.Fatalf("empty analyzer produced %v", texts(got))
	}
	a.Add(nil, "")
	if got := a.Patterns(testNow); len(got) != 0 {
		t.Fatalf("nil tokens produced %v", texts(got))
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	msgs := []string{
		"a b 1", "a b 2", "a b 3",
		"x y z", "x q z", "x r z",
	}
	var prev []string
	for round := 0; round < 5; round++ {
		got := texts(mine(t, "svc", Config{}, msgs...))
		if round > 0 {
			if len(got) != len(prev) {
				t.Fatalf("non-deterministic output: %v vs %v", got, prev)
			}
			for i := range got {
				if got[i] != prev[i] {
					t.Fatalf("non-deterministic output: %v vs %v", got, prev)
				}
			}
		}
		prev = got
	}
}

// TestWideFanoutCollapses feeds one position 20 000 distinct literal
// values, each followed by a distinct literal of its own: no two tails
// line up, so only the high-cardinality fallback can merge the position,
// collapsing 20 000 siblings at once: the case for which collapsed
// siblings are removed in one pass over their parent's children.
func TestWideFanoutCollapses(t *testing.T) {
	const n = 20000
	// letters spells i in the letters g..z, which no scanner rule reads
	// as a number, hex string or host.
	letters := func(i int) string {
		var b []byte
		for j := 0; j < 4; j++ {
			b = append(b, byte('g'+i%20))
			i /= 20
		}
		return string(b)
	}
	a := New("svc", DefaultConfig())
	var s token.Scanner
	for i := 0; i < n; i++ {
		m := "lease k" + letters(i) + " granted to w" + letters(n-1-i)
		a.Add(token.Enrich(s.ScanCopy(m)), m)
	}
	got := a.Patterns(testNow)
	if len(got) != 1 {
		t.Fatalf("want 1 pattern, got %d: %v", len(got), texts(got[:min(len(got), 5)]))
	}
	p := got[0]
	if p.Count != n {
		t.Errorf("count = %d, want %d", p.Count, n)
	}
	if e := p.Elements[1]; !e.Var || e.Type != token.Literal || e.Name != "string" {
		t.Errorf("position 1 = %+v in %q, want %%string%%", e, p.Text())
	}
}

func BenchmarkAnalyze10k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	msgs := make([]string, 10000)
	for i := range msgs {
		msgs[i] = fmt.Sprintf("Accepted password for user%d from 10.0.%d.%d port %d",
			rng.Intn(100), rng.Intn(256), rng.Intn(256), 1024+rng.Intn(60000))
	}
	var s token.Scanner
	scanned := make([][]token.Token, len(msgs))
	for i, m := range msgs {
		scanned[i] = token.Enrich(s.ScanCopy(m))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := New("bench", Config{})
		for j, toks := range scanned {
			a.Add(toks, msgs[j])
		}
		a.Patterns(testNow)
	}
}
