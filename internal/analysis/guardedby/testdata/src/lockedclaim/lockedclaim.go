// Evasion fixture for guardedby: a *Locked suffix is only a claim, and
// a per-function check has to trust it. With the call graph the claim
// is verified — every production path into the helper must acquire the
// mutex — and the lock-free call sites are flagged at the frontier.
package lockedclaim

import "sync"

type Counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// sumLocked claims by suffix that the caller holds mu; nothing in this
// body can prove or disprove that.
func (c *Counter) sumLocked() int { return c.n }

func (c *Counter) Good() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sumLocked()
}

// Bad calls the *Locked helper without acquiring anything: the
// annotation-only lock claim no per-function check can catch.
func (c *Counter) Bad() int {
	return c.sumLocked() // want `call to Counter\.sumLocked reaches Counter\.n \(annotated .guarded by mu.\) without holding mu`
}

// tally inherits the obligation: it holds no lock itself, so its own
// callers are checked.
func (c *Counter) tally() int { return c.sumLocked() }

func (c *Counter) ReportGood() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tally()
}

func (c *Counter) ReportBad() int {
	return c.tally() // want `call to Counter\.tally reaches Counter\.n \(annotated .guarded by mu.\) without holding mu`
}
