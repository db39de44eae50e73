//go:build race

package ingest

// raceEnabled reports that this test binary was built with the race
// detector, whose instrumentation makes allocation counts meaningless.
const raceEnabled = true
