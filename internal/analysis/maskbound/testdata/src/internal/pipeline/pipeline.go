// Fixture: a helper package between the ingest layer and the durable
// sinks. Wrapping a sink in a helper evades any per-function check (the
// helper lives outside internal/core and internal/server, and the
// caller's body contains no sink call); maskbound traces the call chain
// through here.
package pipeline

import (
	"internal/mask"
	"internal/store"
)

// Persist wraps the store sink with no masking of its own: calling it
// on unmasked text is as unsafe as calling ApplyBatch directly.
func Persist(st *store.Store, svc string) error {
	_, err := st.ApplyBatch(svc, nil)
	return err
}

// SanitizeAndPersist masks unconditionally before writing, so callers
// need no masking stage of their own.
func SanitizeAndPersist(st *store.Store, m *mask.Masker, svc string, msgs []string) error {
	for i, msg := range msgs {
		if out, changed := m.Mask(msg); changed {
			msgs[i] = out
		}
	}
	_, err := st.ApplyBatch(svc, nil)
	return err
}
