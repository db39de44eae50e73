//go:build race

package testenv

// Race reports that the binary was built with the race detector, whose
// instrumentation makes allocation counts meaningless.
const Race = true
