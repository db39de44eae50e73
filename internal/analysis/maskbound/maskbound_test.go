package maskbound_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/maskbound"
)

func TestMaskBound(t *testing.T) {
	analysistest.Run(t, maskbound.Analyzer, "internal/core")
	analysistest.Run(t, maskbound.Analyzer, "internal/server")
}

// TestMaskBoundEvasions pins the shapes a per-function lexical check
// cannot see: helper-wrapped sinks, mask-after-store through a helper,
// and a conditional mask that fails to dominate a direct sink.
func TestMaskBoundEvasions(t *testing.T) {
	analysistest.Run(t, maskbound.Analyzer, "evasion/internal/core", "internal/pipeline")
}
