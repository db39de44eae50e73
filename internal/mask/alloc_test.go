package mask

import (
	"strings"
	"testing"

	"repro/internal/testenv"
)

// TestMaskPathAllocs pins the masking hot path's allocation behaviour:
//
//   - A non-matching message costs zero allocations per call even with
//     the result cache disabled — the detection pass runs entirely on
//     the pooled scratch state, and a clean message is returned as-is.
//   - A matching message in steady state (cache enabled, already seen)
//     also costs zero allocations: the rewrite is replayed from the
//     verbatim-result cache.
//   - A matching message with the cache disabled — the worst case, a
//     full rewrite every call — stays within a small fixed budget.
//
// bench/ prices the same path as mask.ns_per_msg.
func TestMaskPathAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rules, err := ParseRules(strings.NewReader(`redact \bssn-\d{9}\b`))
	if err != nil {
		t.Fatal(err)
	}

	clean := "connection from host established port open retries exhausted"
	dirty := "user alice@example.com from 10.1.2.3 password=hunter2"

	uncached := New(Config{Rules: rules, DisableCache: true})
	if got := allocsPer(t, uncached, clean); got != 0 {
		t.Errorf("non-matching message, cache off: %.1f allocs/msg, want 0", got)
	}

	cached := New(Config{Rules: rules})
	cached.Mask(clean)
	cached.Mask(dirty) // warm the cache
	if got := allocsPer(t, cached, clean); got != 0 {
		t.Errorf("non-matching message, cache hit: %.1f allocs/msg, want 0", got)
	}
	if got := allocsPer(t, cached, dirty); got != 0 {
		t.Errorf("matching message, cache hit: %.1f allocs/msg, want 0", got)
	}

	// Full rewrite on every call: bounded, not zero. The budget covers
	// the output string copy and the regexp match bookkeeping.
	if got := allocsPer(t, uncached, dirty); got > 16 {
		t.Errorf("matching message, cache off: %.1f allocs/msg, want <= 16", got)
	}
}

func allocsPer(t *testing.T, m *Masker, msg string) float64 {
	t.Helper()
	return testing.AllocsPerRun(200, func() {
		m.Mask(msg)
	})
}
