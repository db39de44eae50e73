// Package crashtest is the crash-consistency harness of the pattern
// store: it drives a scripted workload (upserts, touches, deletes,
// purges, flushes, compactions, shard-count changes across reopen) on a
// fault-injecting filesystem (internal/vfs), crashes at every mutating
// disk operation the workload performs, reopens the store from the disk
// image the crash left, and checks the durability contract:
//
//   - no lost acknowledged mutation: everything applied before the last
//     successful barrier (Flush, Compact, Close) is present after reopen;
//   - no resurrected delete: a pattern removed before the last barrier
//     and not re-upserted since stays gone;
//   - no double-apply: a pattern's match count after reopen never exceeds
//     the count of every attempted operation (compaction is atomic — a
//     crash between the snapshot rename and the journal truncation must
//     not replay folded records a second time);
//   - replay never errors: a store opens from every crash image, under
//     any shard count, and recovery is idempotent.
//
// Both crash loss modes are exercised: the image that keeps only fsynced
// bytes and the one where the OS happened to write everything back
// before the cut (vfs.Fault.KeepUnsynced). A run starts from an empty
// directory or from the files of an existing database; the patterns
// those hold join the model as acknowledged, and the store's first open
// — replay, migration compaction, stray-journal retirement — is inside
// the crash schedule. The harness is driven by crashtest_test.go; it
// lives in a non-test file so the scripted workload and the invariant
// checker are one reviewable unit.
package crashtest

import (
	"errors"
	"fmt"
	"path"
	"time"

	"repro/internal/patterns"
	"repro/internal/store"
	"repro/internal/vfs"
)

// dir is the simulated database directory.
const dir = "db"

// baseTime keeps every timestamp in the workload deterministic, so the
// byte content of journal records — and with it the step schedule — is
// identical across runs.
var baseTime = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// Op is one step of the scripted workload.
type Op struct {
	Kind string // upsert | touch | delete | purge | flush | compact | abandon | reopen | batch
	// Svc and Text identify the pattern for upsert/touch/delete (the
	// pattern ID is derived from them). For batch, Svc is the batch's
	// service.
	Svc, Text string
	// N is the upsert seed count or the touch increment; for purge it is
	// the minimum count (patterns below it are purged).
	N int64
	// Shards is the shard count for reopen.
	Shards int
	// Batch holds the upsert/touch items of a batch op, committed
	// together through ApplyBatch as one group-committed journal append.
	Batch []Op
}

// Script returns the scripted workload: rounds of mutations (including
// one group-committed batch per round) with barriers between them,
// reopened under a changing shard count, with one process-kill
// (abandon: flush, drop the store, reopen) per round.
func Script() []Op {
	shardSeq := []int{2, 3, 1, 2, 3, 1, 4, 2}
	var ops []Op
	for r, next := range shardSeq {
		svcA := fmt.Sprintf("svc-%d-a", r)
		svcB := fmt.Sprintf("svc-%d-b", r)
		// Survivors are touched past the purge threshold; victims stay at
		// their seed count of 1.
		ops = append(ops,
			Op{Kind: "upsert", Svc: svcA, Text: "request handled in ms", N: 1},
			Op{Kind: "upsert", Svc: svcA, Text: "connection closed by peer", N: 1},
			Op{Kind: "upsert", Svc: svcB, Text: "block received from node", N: 1},
			Op{Kind: "upsert", Svc: svcB, Text: "temporary scratch entry", N: 1},
			Op{Kind: "touch", Svc: svcA, Text: "request handled in ms", N: 3},
			Op{Kind: "touch", Svc: svcB, Text: "block received from node", N: 2},
			Op{Kind: "touch", Svc: svcB, Text: "block received from node", N: 2},
			// One group commit: upserts plus coalescing touches land as a
			// single journal append, and a crash inside it must lose or
			// keep the batch without double-applying anything.
			Op{Kind: "batch", Svc: svcA, Batch: []Op{
				{Kind: "upsert", Svc: svcA, Text: "batched request completed", N: 1},
				{Kind: "upsert", Svc: svcA, Text: "batched session opened", N: 1},
				{Kind: "touch", Svc: svcA, Text: "batched request completed", N: 4},
				{Kind: "touch", Svc: svcA, Text: "batched request completed", N: 2},
				{Kind: "touch", Svc: svcA, Text: "batched session opened", N: 3},
			}},
			Op{Kind: "flush"},
			Op{Kind: "delete", Svc: svcA, Text: "connection closed by peer"},
			Op{Kind: "purge", N: 3}, // removes the scratch entry (count 1)
			Op{Kind: "compact"},
			Op{Kind: "upsert", Svc: svcA, Text: "cache invalidated for key", N: 1},
			Op{Kind: "touch", Svc: svcA, Text: "cache invalidated for key", N: 4},
			// Re-add a pattern purged in the previous round: a legitimate
			// re-discovery must not be confused with a resurrected delete.
			Op{Kind: "upsert", Svc: svcA, Text: "temporary scratch entry", N: 1},
			Op{Kind: "delete", Svc: svcA, Text: "temporary scratch entry"},
			Op{Kind: "flush"},
			Op{Kind: "abandon"},
			Op{Kind: "reopen", Shards: next},
		)
	}
	return ops
}

// idState is the model's view of one pattern: the state at the last
// successful barrier (guaranteed durable) and the state every attempted
// operation would produce (the upper bound a crash image may show).
type idState struct {
	service            string
	barrierExists      bool
	barrierCount       int64
	curExists          bool
	curCount           int64
	upsertSinceBarrier bool
	deleteSinceBarrier bool
}

// runner executes a script against a store on a fault filesystem while
// maintaining the model.
type runner struct {
	f     *vfs.Fault
	st    *store.Store
	model map[string]*idState
}

func patternID(svc, text string) (string, error) {
	p, err := patterns.FromText(text, svc)
	if err != nil {
		return "", err
	}
	return p.ID, nil
}

// seed returns a fault filesystem whose database directory holds files
// (name → content, fully synced) with its step counter at zero, and the
// model of the patterns they hold: every one acknowledged, as a database
// found on disk is. nil files is an empty filesystem.
func seed(files map[string][]byte) (*vfs.Fault, map[string]*idState, error) {
	f := vfs.NewFault()
	model := map[string]*idState{}
	if len(files) == 0 {
		return f, model, nil
	}
	if err := f.MkdirAll(dir); err != nil {
		return nil, nil, err
	}
	for name, data := range files {
		w, err := f.Create(path.Join(dir, name))
		if err != nil {
			return nil, nil, err
		}
		if _, err := w.Write(data); err != nil {
			return nil, nil, err
		}
		if err := w.Sync(); err != nil {
			return nil, nil, err
		}
		if err := w.Close(); err != nil {
			return nil, nil, err
		}
	}
	f = f.Image()
	// Read the seeded patterns from a copy, so the run's own first open
	// is the one that migrates the directory.
	st, err := store.OpenOptions(dir, store.Options{Shards: 2, FS: f.Image()})
	if err != nil {
		return nil, nil, fmt.Errorf("open seed database: %w", err)
	}
	for _, p := range st.All() {
		model[p.ID] = &idState{service: p.Service, barrierExists: true, barrierCount: p.Count, curExists: true, curCount: p.Count}
	}
	return f, model, st.Close()
}

// newRunner opens the store on f. The runner is returned even when the
// open fails (the armed crash fired inside it), so the caller can check
// the crash image against the model.
func newRunner(f *vfs.Fault, model map[string]*idState) (*runner, error) {
	st, err := store.OpenOptions(dir, store.Options{Shards: 2, FS: f})
	return &runner{f: f, st: st, model: model}, err
}

func (r *runner) state(svc, text string) (*idState, error) {
	id, err := patternID(svc, text)
	if err != nil {
		return nil, err
	}
	s := r.model[id]
	if s == nil {
		s = &idState{service: svc}
		r.model[id] = s
	}
	return s, nil
}

// promoteBarrier records that a barrier succeeded: everything attempted
// so far is now guaranteed durable.
func (r *runner) promoteBarrier() {
	for _, s := range r.model {
		s.barrierExists = s.curExists
		s.barrierCount = s.curCount
		s.upsertSinceBarrier = false
		s.deleteSinceBarrier = false
	}
}

// run executes ops until the script completes or an operation fails
// (the armed crash point fired, directly or through a buffered write).
// It returns whether the script ran to completion. Failed mutations are
// folded into the model as maybe-applied: the store applies a mutation
// in memory before journaling it, and a crash image may retain a torn
// journal tail containing it, so the model's upper bound must include it.
func (r *runner) run(ops []Op) (bool, error) {
	for _, op := range ops {
		switch op.Kind {
		case "upsert":
			s, err := r.state(op.Svc, op.Text)
			if err != nil {
				return false, err
			}
			p, err := patterns.FromText(op.Text, op.Svc)
			if err != nil {
				return false, err
			}
			p.Count = op.N
			uerr := r.st.Upsert(p)
			s.curExists = true
			s.curCount += op.N
			s.upsertSinceBarrier = true
			if uerr != nil {
				return false, nil
			}
		case "touch":
			s, err := r.state(op.Svc, op.Text)
			if err != nil {
				return false, err
			}
			id, err := patternID(op.Svc, op.Text)
			if err != nil {
				return false, err
			}
			terr := r.st.TouchIn(op.Svc, id, op.N, baseTime, "")
			if errors.Is(terr, store.ErrUnknownPattern) {
				return false, fmt.Errorf("script touched unknown pattern %s/%q", op.Svc, op.Text)
			}
			s.curCount += op.N
			if terr != nil {
				return false, nil
			}
		case "delete":
			s, err := r.state(op.Svc, op.Text)
			if err != nil {
				return false, err
			}
			id, err := patternID(op.Svc, op.Text)
			if err != nil {
				return false, err
			}
			derr := r.st.Delete(id)
			s.curExists = false
			s.deleteSinceBarrier = true
			if derr != nil {
				return false, nil
			}
		case "batch":
			// The model is updated before checking the error: ApplyBatch
			// applies every op in memory before the single journal append,
			// so a crash image may retain the whole batch in a torn tail.
			bops := make([]store.Op, 0, len(op.Batch))
			for _, item := range op.Batch {
				s, err := r.state(item.Svc, item.Text)
				if err != nil {
					return false, err
				}
				switch item.Kind {
				case "upsert":
					p, err := patterns.FromText(item.Text, item.Svc)
					if err != nil {
						return false, err
					}
					p.Count = item.N
					bops = append(bops, store.Op{Kind: store.OpUpsert, Pattern: p})
					s.curExists = true
					s.curCount += item.N
					s.upsertSinceBarrier = true
				case "touch":
					id, err := patternID(item.Svc, item.Text)
					if err != nil {
						return false, err
					}
					bops = append(bops, store.Op{Kind: store.OpTouch, ID: id, N: item.N, When: baseTime})
					s.curCount += item.N
				default:
					return false, fmt.Errorf("unknown batch item kind %q", item.Kind)
				}
			}
			unknown, berr := r.st.ApplyBatch(op.Svc, bops)
			if len(unknown) > 0 {
				return false, fmt.Errorf("batch touched unknown patterns %v", unknown)
			}
			if berr != nil {
				return false, nil
			}
		case "purge":
			removed, perr := r.st.PurgeIDs(op.N, baseTime.Add(1000*time.Hour))
			for _, id := range removed {
				if s := r.model[id]; s != nil {
					s.curExists = false
					s.deleteSinceBarrier = true
				}
			}
			if perr != nil {
				// The purge stopped mid-scan: any pattern matching its
				// predicate may or may not have been removed.
				for _, s := range r.model {
					if s.curExists && s.curCount < op.N {
						s.curExists = false
						s.deleteSinceBarrier = true
					}
				}
				return false, nil
			}
		case "flush":
			if err := r.st.Flush(); err != nil {
				return false, nil
			}
			r.promoteBarrier()
		case "compact":
			if err := r.st.Compact(); err != nil {
				return false, nil
			}
			r.promoteBarrier()
		case "abandon":
			// Simulate a process kill right after a successful flush: drop
			// the store without closing it and reopen over the same files.
			// The journals are non-empty, so the reopen replays them and
			// compacts (the migration path).
			shards := r.st.Shards()
			st, err := store.OpenOptions(dir, store.Options{Shards: shards, FS: r.f})
			if err != nil {
				return false, nil
			}
			r.st = st
		case "reopen":
			if err := r.st.Close(); err != nil {
				return false, nil
			}
			r.promoteBarrier()
			st, err := store.OpenOptions(dir, store.Options{Shards: op.Shards, FS: r.f})
			if err != nil {
				return false, nil
			}
			r.st = st
		default:
			return false, fmt.Errorf("unknown op kind %q", op.Kind)
		}
	}
	if err := r.st.Close(); err != nil {
		return false, nil
	}
	r.promoteBarrier()
	return true, nil
}

// checkInvariants opens a store over the crash image and verifies it
// against the model. reopenShards lets the caller vary the recovering
// process's shard count — replay must be correct under any.
func checkInvariants(img *vfs.Fault, model map[string]*idState, reopenShards int) error {
	st, err := store.OpenOptions(dir, store.Options{Shards: reopenShards, FS: img})
	if err != nil {
		return fmt.Errorf("replay errored: %w", err)
	}
	defer st.Close()
	for id, s := range model {
		p, ok := st.Get(id)
		mustExist := s.barrierExists && !s.deleteSinceBarrier
		mustNotExist := !s.barrierExists && !s.curExists && !s.upsertSinceBarrier
		if mustExist && !ok {
			return fmt.Errorf("lost acknowledged pattern %s (service %s, barrier count %d)", id, s.service, s.barrierCount)
		}
		if mustNotExist && ok {
			return fmt.Errorf("resurrected pattern %s (service %s): deleted before the last barrier, present with count %d", id, s.service, p.Count)
		}
		if ok && !s.deleteSinceBarrier {
			if p.Count > s.curCount {
				return fmt.Errorf("double-applied records for %s (service %s): count %d > attempted %d", id, s.service, p.Count, s.curCount)
			}
			if s.barrierExists && p.Count < s.barrierCount {
				return fmt.Errorf("lost acknowledged touches for %s (service %s): count %d < barrier %d", id, s.service, p.Count, s.barrierCount)
			}
		}
	}
	return nil
}

// stateOf collects id → count for the idempotence comparison.
func stateOf(st *store.Store) map[string]int64 {
	out := map[string]int64{}
	for _, p := range st.All() {
		out[p.ID] = p.Count
	}
	return out
}

// Probe runs the script once from the database files (nil: an empty
// directory) with no crash armed and returns the number of mutating disk
// operations it performs — the crash schedule's bound. It also verifies
// the complete run satisfies the model exactly.
func Probe(ops []Op, files map[string][]byte) (int, error) {
	f, model, err := seed(files)
	if err != nil {
		return 0, err
	}
	r, err := newRunner(f, model)
	if err != nil {
		return 0, err
	}
	done, err := r.run(ops)
	if err != nil {
		return 0, err
	}
	if !done {
		return 0, errors.New("uncrashed run did not complete")
	}
	if err := checkInvariants(f.Image(), r.model, 2); err != nil {
		return 0, fmt.Errorf("complete run: %w", err)
	}
	return f.Steps(), nil
}

// RunCrash crashes the scripted workload at mutating disk operation k,
// reopens the store from the crash image and checks every invariant,
// including reopening under a different shard count and recovery
// idempotence (recover, close, recover again: identical state).
func RunCrash(ops []Op, k int, keepUnsynced bool, files map[string][]byte) error {
	r, err := crashRun(ops, k, keepUnsynced, files)
	if err != nil {
		return err
	}

	img := r.f.Image()
	if err := checkInvariants(img, r.model, 2); err != nil {
		return err
	}
	// Replay must be correct under any recovering shard count.
	if err := checkInvariants(r.f.Image(), r.model, 5); err != nil {
		return fmt.Errorf("under 5 shards: %w", err)
	}

	// Recovery idempotence: recovering, shutting down cleanly and
	// recovering again must converge on the same state.
	st1, err := store.OpenOptions(dir, store.Options{Shards: 3, FS: img})
	if err != nil {
		return fmt.Errorf("recovery open: %w", err)
	}
	a := stateOf(st1)
	if err := st1.Close(); err != nil {
		return fmt.Errorf("recovery close: %w", err)
	}
	st2, err := store.OpenOptions(dir, store.Options{Shards: 3, FS: img})
	if err != nil {
		return fmt.Errorf("second recovery open: %w", err)
	}
	b := stateOf(st2)
	st2.Close()
	if len(a) != len(b) {
		return fmt.Errorf("recovery not idempotent: %d patterns then %d", len(a), len(b))
	}
	for id, n := range a {
		if b[id] != n {
			return fmt.Errorf("recovery not idempotent: pattern %s count %d then %d", id, n, b[id])
		}
	}
	return nil
}

// RunRecoveryCrash crashes the workload at step k, then crashes the
// recovery itself at every one of its own mutating disk operations, and
// checks the invariants still hold after the second crash — recovery
// must be as crash-safe as normal operation.
func RunRecoveryCrash(ops []Op, k int, keepUnsynced bool, files map[string][]byte) error {
	r, err := crashRun(ops, k, keepUnsynced, files)
	if err != nil {
		return err
	}
	img := r.f.Image()

	// Bound the recovery's own crash schedule.
	probe := img.Image()
	if st, err := store.OpenOptions(dir, store.Options{Shards: 3, FS: probe}); err != nil {
		return fmt.Errorf("recovery probe: %w", err)
	} else {
		st.Close()
	}
	steps := probe.Steps()

	for j := 1; j <= steps; j++ {
		img2 := img.Image()
		img2.KeepUnsynced(keepUnsynced)
		img2.CrashAtStep(j)
		if st, err := store.OpenOptions(dir, store.Options{Shards: 3, FS: img2}); err == nil {
			st.Close() // may crash mid-close; errors are the crash firing
		}
		if err := checkInvariants(img2.Image(), r.model, 3); err != nil {
			return fmt.Errorf("after recovery crash at step %d/%d: %w", j, steps, err)
		}
	}
	return nil
}

// crashRun runs the script from the database files with the crash armed
// at mutating disk operation k — which may fire inside the initial open
// — and returns the runner holding the crashed disk and the model.
func crashRun(ops []Op, k int, keepUnsynced bool, files map[string][]byte) (*runner, error) {
	f, model, err := seed(files)
	if err != nil {
		return nil, err
	}
	f.KeepUnsynced(keepUnsynced)
	f.CrashAtStep(k)
	r, err := newRunner(f, model)
	if errors.Is(err, vfs.ErrCrashed) {
		return r, nil
	}
	if err != nil {
		return nil, fmt.Errorf("initial open: %v", err)
	}
	if _, err := r.run(ops); err != nil {
		return nil, err
	}
	return r, nil
}
