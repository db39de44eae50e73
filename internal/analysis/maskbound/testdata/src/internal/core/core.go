// Fixture: ingest functions in internal/core must mask before writing
// to the store or archive. Covered sinks with a dominating masking
// call are legal; bare sinks, or sinks the mask only follows, are
// reported.
package core

import (
	"internal/archive"
	"internal/mask"
	"internal/store"
)

type engine struct {
	st  *store.Store
	ar  *archive.Archive
	msk *mask.Masker
}

// A Masker method before the sink covers it.
func (e *engine) goodDirect(msgs []string) error {
	for i, m := range msgs {
		if out, changed := e.msk.Mask(m); changed {
			msgs[i] = out
		}
	}
	_, err := e.st.ApplyBatch("svc", nil)
	return err
}

// maskAll is an ingest helper: its name marks it as the masking stage.
func (e *engine) maskAll(msgs []string) []string {
	for i, m := range msgs {
		if out, changed := e.msk.Mask(m); changed {
			msgs[i] = out
		}
	}
	return msgs
}

// A mask* helper before the sinks covers them, closures included.
func (e *engine) goodHelper(msgs []string) error {
	msgs = e.maskAll(msgs)
	add := func(id string) { _ = e.ar.Append("svc", id) }
	add("p-1")
	_, err := e.st.ApplyBatch("svc", nil)
	return err
}

func (e *engine) badBatch(msgs []string) error {
	_, err := e.st.ApplyBatch("svc", nil) // want `store\.ApplyBatch without a prior masking call`
	return err
}

// Masking after the write does not protect it.
func (e *engine) badLate(msgs []string) error {
	err := e.ar.Append("svc", "p-1") // want `archive\.Append without a prior masking call`
	e.maskAll(msgs)
	return err
}

type buf struct{}

func (b *buf) Append(x byte) {}

// Append on an unrelated type is not the archive sink.
func (e *engine) localAppend(b *buf) {
	b.Append(1)
}
