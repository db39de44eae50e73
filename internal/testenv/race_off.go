//go:build !race

// Package testenv reports properties of the running test binary that
// change what a test may assert.
package testenv

// Race reports that the binary was built with the race detector, whose
// instrumentation makes allocation counts meaningless.
const Race = false
