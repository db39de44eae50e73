package analyzer

import (
	"testing"

	"repro/internal/testenv"
	"repro/internal/token"
	"repro/internal/workload"
)

// allocPartition is a fixed 10k-message partition: the first 10 000
// messages of the busiest service of workload seed 1, what the engine
// hands one analyzer per batch.
func allocPartition() []string {
	g := workload.New(workload.Config{Seed: 1})
	msgs := make([]string, 0, 10000)
	for len(msgs) < cap(msgs) {
		if r := g.Next(); r.Service == "svc000" {
			msgs = append(msgs, r.Message)
		}
	}
	return msgs
}

// mineAll scans, adds and mines msgs with one production-configured
// analyzer, the unit of work of an unmatched partition.
func mineAll(msgs []string, s *token.Scanner) {
	a := New("svc000", DefaultConfig())
	for _, m := range msgs {
		a.Add(token.Enrich(s.Scan(m)), m)
	}
	a.Patterns(testNow)
}

// TestMineAllocs is the committed allocation budget of mining: scan, Add
// and Patterns over a fixed partition. What remains is node chunks,
// child slices, interned literals, the value census of variable nodes,
// examples and the patterns themselves; the merge pass reuses its
// scratch.
func TestMineAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	msgs := allocPartition()
	s := token.NewScanner(token.Config{})
	defer s.Release()
	perMsg := testing.AllocsPerRun(3, func() { mineAll(msgs, s) }) / float64(len(msgs))
	const budget = 4.4 // measured 4.03 on amd64, plus 10 % headroom
	t.Logf("mining allocates %.2f per message", perMsg)
	if perMsg > budget {
		t.Fatalf("mining allocates %.2f per message, budget is %.2f", perMsg, budget)
	}
}

func BenchmarkMinePartition10k(b *testing.B) {
	msgs := allocPartition()
	s := token.NewScanner(token.Config{})
	defer s.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mineAll(msgs, s)
	}
}

// BenchmarkMineWorkload100k mines 100k multi-service records, one
// analyzer per service, as an ad-hoc run of a fresh file does.
func BenchmarkMineWorkload100k(b *testing.B) {
	recs := workload.New(workload.Config{Seed: 1}).Records(100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mineRecords(recs)
	}
}
