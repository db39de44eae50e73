// Evasion fixture for maskbound: every flagged shape here is invisible
// to a per-function "mask call before sink call" check, and caught
// through the call graph and the dominance test.
package core

import (
	"internal/mask"
	"internal/pipeline"
	"internal/store"
)

type engine struct {
	st    *store.Store
	msk   *mask.Masker
	debug bool
}

func (e *engine) maskAll(msgs []string) []string {
	for i, m := range msgs {
		if out, changed := e.msk.Mask(m); changed {
			msgs[i] = out
		}
	}
	return msgs
}

// Helper-wrapped sink: the sink call lives in internal/pipeline, so
// this body contains no durable write of its own.
func (e *engine) helperWrapped(msgs []string) error {
	return pipeline.Persist(e.st, "svc") // want `call to Persist reaches store\.ApplyBatch without a prior masking call`
}

// Mask-after-store through a helper: the masking stage runs, but only
// after the wrapped write has already persisted raw text. Lexically
// there is a mask call and no sink.
func (e *engine) maskAfterStore(msgs []string) error {
	err := pipeline.Persist(e.st, "svc") // want `call to Persist reaches store\.ApplyBatch without a prior masking call`
	e.maskAll(msgs)
	return err
}

// Conditional mask: the masking call appears lexically before the sink
// but only runs on the debug path, so the write is not dominated.
func (e *engine) condMask(msgs []string) error {
	if e.debug {
		e.maskAll(msgs)
	}
	_, err := e.st.ApplyBatch("svc", nil) // want `store\.ApplyBatch without a prior masking call`
	return err
}

// Masking before the helper covers the wrapped sink: the chain from
// this entry point transitively masks first.
func (e *engine) goodTransitive(msgs []string) error {
	msgs = e.maskAll(msgs)
	return pipeline.Persist(e.st, "svc")
}

// A helper that masks on entry needs no masking stage in the caller.
func (e *engine) goodSelfMasking(msgs []string) error {
	return pipeline.SanitizeAndPersist(e.st, e.msk, "svc", msgs)
}
