package guardedby_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/guardedby"
)

func TestGuardedBy(t *testing.T) {
	analysistest.Run(t, guardedby.Analyzer, "cache")
}

// TestGuardedByLockedClaim pins the annotation-only lock claim: *Locked helpers whose callers are visible
// are verified, and the lock-free call sites are reported at the
// frontier.
func TestGuardedByLockedClaim(t *testing.T) {
	analysistest.Run(t, guardedby.Analyzer, "lockedclaim")
}
