package analyzer

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/ingest"
	"repro/internal/loghub"
	"repro/internal/patterns"
	"repro/internal/token"
	"repro/internal/workload"
)

// equivalenceGolden holds the mined (ID, count, multiline, text) of every
// corpus of equivalenceCorpora. It was written once by the map-backed
// trie that preceded the slice-backed one, so any storage or merge-pass
// rewrite must reproduce the mined patterns byte for byte.
const equivalenceGolden = "testdata/mined.golden"

type corpus struct {
	name string
	recs []ingest.Record
}

// equivalenceCorpora is three 100k-record multi-service workloads and the
// sixteen Table II stand-ins, each mined as one service.
func equivalenceCorpora(t testing.TB) []corpus {
	var out []corpus
	for seed := int64(1); seed <= 3; seed++ {
		out = append(out, corpus{
			name: fmt.Sprintf("workload seed=%d", seed),
			recs: workload.New(workload.Config{Seed: seed}).Records(100000),
		})
	}
	return append(out, standInCorpora(t)...)
}

func standInCorpora(t testing.TB) []corpus {
	sets, err := loghub.GenerateAll(2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]corpus, len(sets))
	for i, ds := range sets {
		recs := make([]ingest.Record, len(ds.Lines))
		for j, l := range ds.Lines {
			recs[j] = ingest.Record{Service: ds.Name, Message: l.Content}
		}
		out[i] = corpus{name: "loghub " + ds.Name, recs: recs}
	}
	return out
}

// mineRecords mines recs with one production-configured analyzer per
// service and returns every pattern, services in name order.
func mineRecords(recs []ingest.Record) []*patterns.Pattern {
	byService := make(map[string]*Analyzer)
	var services []string
	s := token.NewScanner(token.Config{})
	defer s.Release()
	for _, r := range recs {
		a := byService[r.Service]
		if a == nil {
			a = New(r.Service, DefaultConfig())
			byService[r.Service] = a
			services = append(services, r.Service)
		}
		a.Add(token.Enrich(s.Scan(r.Message)), r.Message)
	}
	sort.Strings(services)
	var out []*patterns.Pattern
	for _, svc := range services {
		out = append(out, byService[svc].Patterns(testNow)...)
	}
	return out
}

// renderMined writes one line per pattern, sorted by ID then text.
func renderMined(buf *bytes.Buffer, name string, ps []*patterns.Pattern) {
	lines := make([]string, len(ps))
	for i, p := range ps {
		lines[i] = fmt.Sprintf("%s %d %t %q\n", p.ID, p.Count, p.Multiline, p.Text())
	}
	sort.Strings(lines)
	fmt.Fprintf(buf, "# %s patterns=%d\n", name, len(ps))
	for _, l := range lines {
		buf.WriteString(l)
	}
}

// TestMinedPatternsMatchGolden pins the mined patterns of every
// equivalence corpus. Examples are not in the golden file; they are
// checked by property: each matches its pattern, there are at most
// MaxExamples, and each is one of the service's inputs.
func TestMinedPatternsMatchGolden(t *testing.T) {
	want, err := os.ReadFile(equivalenceGolden)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	s := token.NewScanner(token.Config{})
	defer s.Release()
	for _, c := range equivalenceCorpora(t) {
		ps := mineRecords(c.recs)
		renderMined(&got, c.name, ps)

		inputs := make(map[string]bool, len(c.recs))
		for _, r := range c.recs {
			inputs[r.Service+"\x00"+r.Message] = true
		}
		for _, p := range ps {
			if len(p.Examples) == 0 || len(p.Examples) > patterns.MaxExamples {
				t.Errorf("%s: %q has %d examples, want 1..%d", c.name, p.Text(), len(p.Examples), patterns.MaxExamples)
			}
			for _, ex := range p.Examples {
				if !inputs[p.Service+"\x00"+ex] {
					t.Errorf("%s: example %q of %q is not an input of %s", c.name, ex, p.Text(), p.Service)
				}
				if _, ok := p.Match(token.Enrich(s.Scan(ex))); !ok {
					t.Errorf("%s: %q does not match its example %q", c.name, p.Text(), ex)
				}
			}
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		out := filepath.Join(t.TempDir(), "mined.got")
		_ = os.WriteFile(out, got.Bytes(), 0o644)
		t.Fatalf("mined patterns differ from %s; got written to %s (diff the two)", equivalenceGolden, out)
	}
}

// TestMiningDeterministic mines every Table II stand-in ten times and
// requires identical IDs, counts and examples each time: the collapse
// order of the merge pass, and with it example selection, must not depend
// on map iteration order.
func TestMiningDeterministic(t *testing.T) {
	corpora := standInCorpora(t)
	render := func() string {
		var b bytes.Buffer
		for _, c := range corpora {
			for _, p := range mineRecords(c.recs) {
				fmt.Fprintf(&b, "%s %d %q\n", p.ID, p.Count, p.Examples)
			}
		}
		return b.String()
	}
	first := render()
	for run := 1; run < 10; run++ {
		if got := render(); got != first {
			t.Fatalf("run %d mined a different result than run 0:\n%s", run, firstDiff(first, got))
		}
	}
}

// firstDiff returns the first differing line of two renderings.
func firstDiff(a, b string) string {
	al, bl := bytes.Split([]byte(a), []byte("\n")), bytes.Split([]byte(b), []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("- %s\n+ %s", al[i], bl[i])
		}
	}
	return fmt.Sprintf("line counts differ: %d vs %d", len(al), len(bl))
}
