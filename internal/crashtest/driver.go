// Package crashtest is the crash-consistency harness of the repo's two
// durable stores, the pattern store (internal/store) and the log
// archive (internal/archive). One driver owns the crash schedule; each
// subject brings its own workload, model and invariants.
//
// The driver runs a subject's scripted workload on a fault-injecting
// filesystem (internal/vfs) and:
//
//   - probes an uncrashed run to count its mutating disk operations,
//     and enforces the subject's floor on that count;
//   - arms a crash at every one of those operations, in both crash loss
//     modes (the image that keeps only fsynced bytes, and the one where
//     the OS happened to write everything back before the cut,
//     vfs.Fault.KeepUnsynced);
//   - checks each crash image against the subject's model under every
//     one of the subject's reopen shard counts;
//   - checks that recovery is idempotent: recovering the image twice
//     yields the same state;
//   - crashes the recovery itself at each of its own mutating disk
//     operations, over first crash points sampled by a stride, and
//     re-checks the image — recovery must be as crash-safe as normal
//     operation.
//
// The subjects live beside the driver (store.go, archive.go) so each
// scripted workload and its invariant checker are one reviewable unit.
package crashtest

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/vfs"
)

// Subject is one system under crash test.
type Subject struct {
	// Name selects the subject: tests run it as a subtest of this name
	// (go test -run '/<name>$').
	Name string
	// MinPoints is the floor on the crash points the uncrashed workload
	// must produce; the script is sized to clear it.
	MinPoints int
	// Exceeds, when set, is a subject this one must produce more crash
	// points than: the extra points are the disk operations the subject
	// adds to the same workload.
	Exceeds *Subject
	// Stride samples the recovery sweep's first crash points; ShortStride
	// replaces it under go test -short.
	Stride, ShortStride int
	// ReopenShards are the shard counts every crash image is checked
	// under; the first also checks the uncrashed run.
	ReopenShards []int
	// RecoveryShards is the shard count of the recovering process in the
	// idempotence check and the recovery-crash sweep.
	RecoveryShards int
	// Start returns a fresh filesystem holding the subject's starting
	// state, its step counter at zero, and a run whose model describes
	// that state.
	Start func() (*vfs.Fault, Run, error)
}

// Run is one execution of a subject's workload and the model it keeps.
type Run interface {
	// Exec opens the subject on f and runs the workload until it
	// completes or the armed crash fires, folding every attempted
	// mutation into the model. done reports a complete run; err is a
	// script or harness bug, never the crash itself.
	Exec(f *vfs.Fault) (done bool, err error)
	// Check reopens the subject over img with the given shard count and
	// verifies the model's invariants. complete marks the image of an
	// uncrashed run, which must match the model exactly.
	Check(img *vfs.Fault, shards int, complete bool) error
	// Recover opens the subject over img as a recovering process would,
	// and returns a summary of the recovered state for the idempotence
	// comparison. An error is the armed crash firing, or a bug when no
	// crash is armed.
	Recover(img *vfs.Fault, shards int) (map[string]int64, error)
}

// probe runs s once with no crash armed, checks the complete run against
// the model, and returns the number of mutating disk operations the
// workload performs: the crash schedule's bound.
func probe(s Subject) (int, error) {
	f, run, err := s.Start()
	if err != nil {
		return 0, err
	}
	done, err := run.Exec(f)
	if err != nil {
		return 0, err
	}
	if !done {
		return 0, errors.New("uncrashed run did not complete")
	}
	if err := run.Check(f.Image(), s.ReopenShards[0], true); err != nil {
		return 0, fmt.Errorf("complete run: %w", err)
	}
	return f.Steps(), nil
}

// crashRun runs s with the crash armed at mutating disk operation k —
// which may fire inside the subject's first open — and returns the run
// holding the model and the disk image the crash left.
func crashRun(s Subject, k int, keepUnsynced bool) (Run, *vfs.Fault, error) {
	f, run, err := s.Start()
	if err != nil {
		return nil, nil, err
	}
	f.KeepUnsynced(keepUnsynced)
	f.CrashAtStep(k)
	if _, err := run.Exec(f); err != nil {
		return nil, nil, err
	}
	return run, f.Image(), nil
}

// runCrash crashes s at mutating disk operation k, checks the image under
// every reopen shard count, and checks that recovery is idempotent.
func runCrash(s Subject, k int, keepUnsynced bool) error {
	run, img, err := crashRun(s, k, keepUnsynced)
	if err != nil {
		return err
	}
	for _, n := range s.ReopenShards {
		if err := run.Check(img.Image(), n, false); err != nil {
			return fmt.Errorf("under %d shards: %w", n, err)
		}
	}
	first, err := run.Recover(img, s.RecoveryShards)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	second, err := run.Recover(img, s.RecoveryShards)
	if err != nil {
		return fmt.Errorf("second recovery: %w", err)
	}
	if len(first) != len(second) {
		return fmt.Errorf("recovery not idempotent: %d entries then %d", len(first), len(second))
	}
	for key, v := range first {
		if w, ok := second[key]; !ok || w != v {
			return fmt.Errorf("recovery not idempotent: %s was %d, then %d (present %v)", key, v, w, ok)
		}
	}
	return nil
}

// runRecoveryCrash crashes s at step k, then crashes the recovery of
// that image at every one of the recovery's own mutating disk
// operations, and checks the invariants after each second crash.
func runRecoveryCrash(s Subject, k int, keepUnsynced bool) error {
	run, img, err := crashRun(s, k, keepUnsynced)
	if err != nil {
		return err
	}
	dry := img.Image()
	if _, err := run.Recover(dry, s.RecoveryShards); err != nil {
		return fmt.Errorf("recovery probe: %w", err)
	}
	steps := dry.Steps()
	for j := 1; j <= steps; j++ {
		img2 := img.Image()
		img2.KeepUnsynced(keepUnsynced)
		img2.CrashAtStep(j)
		_, _ = run.Recover(img2, s.RecoveryShards) // fails where the crash fires
		if err := run.Check(img2.Image(), s.RecoveryShards, false); err != nil {
			return fmt.Errorf("after recovery crash at step %d/%d: %w", j, steps, err)
		}
	}
	return nil
}

// probeFloor probes s and fails t unless the workload clears the
// subject's crash-point floor.
func probeFloor(t testing.TB, s Subject) int {
	t.Helper()
	steps, err := probe(s)
	if err != nil {
		t.Fatalf("probe run: %v", err)
	}
	t.Logf("workload performs %d mutating disk operations", steps)
	if steps < s.MinPoints {
		t.Fatalf("crash schedule has %d points, want >= %d — grow the script", steps, s.MinPoints)
	}
	if s.Exceeds != nil {
		base, err := probe(*s.Exceeds)
		if err != nil {
			t.Fatalf("%s probe run: %v", s.Exceeds.Name, err)
		}
		if steps <= base {
			t.Fatalf("crash schedule has %d points, no more than %s's %d", steps, s.Exceeds.Name, base)
		}
	}
	return steps
}

// CrashMatrix crashes s at every mutating disk operation of its
// workload, in both loss modes, and checks the full durability contract
// at each point. Under -short it stops at the first failure.
func CrashMatrix(t *testing.T, s Subject) {
	steps := probeFloor(t, s)
	for _, keep := range []bool{false, true} {
		for k := 1; k <= steps; k++ {
			if err := runCrash(s, k, keep); err != nil {
				t.Errorf("crash at step %d (keepUnsynced=%v): %v", k, keep, err)
				if testing.Short() {
					t.FailNow()
				}
			}
		}
	}
}

// RecoveryCrash runs the recovery-crash sweep over first crash points
// sampled by the subject's stride (its short stride under -short).
func RecoveryCrash(t *testing.T, s Subject) {
	steps := probeFloor(t, s)
	stride := s.Stride
	if testing.Short() {
		stride = s.ShortStride
	}
	points := 0
	for _, keep := range []bool{false, true} {
		for k := 1; k <= steps; k += stride {
			points++
			if err := runRecoveryCrash(s, k, keep); err != nil {
				t.Errorf("first crash at step %d (keepUnsynced=%v): %v", k, keep, err)
			}
		}
	}
	t.Logf("recovery crashed after %d first crash points", points)
}
