package crashtest

// The store subjects drive the pattern store through exactly the calls
// the engine makes — ApplyBatch for upserts and touches, PurgeIDs for
// deletes — plus MergeFrom (seqrtg merge), the barriers (Flush, Compact,
// Close) and shard-count changes across reopen. The invariants:
//
//   - no lost acknowledged mutation: everything applied before the last
//     successful barrier is present after reopen;
//   - no resurrected delete: a pattern removed before the last barrier
//     and not re-upserted since stays gone;
//   - no double-apply: a pattern's match count after reopen never exceeds
//     the count of every attempted operation (compaction is atomic — a
//     crash between the snapshot rename and the journal truncation must
//     not replay folded records a second time);
//   - replay never errors: a store opens from every crash image, under
//     any shard count.
//
// A run starts from an empty directory (store/v2) or from the committed
// v1 database (store/upgrade). The patterns a starting database holds
// join the model as acknowledged, and the store's first open — replay,
// migration compaction, stray-journal retirement — is inside the crash
// schedule.

import (
	"encoding/json"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"time"

	"repro/internal/patterns"
	"repro/internal/store"
	"repro/internal/vfs"
)

// storeDir is the simulated database directory.
const storeDir = "db"

// baseTime keeps every timestamp in the workloads deterministic, so the
// bytes written — and with them the step schedule — are identical
// across runs.
var baseTime = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// storeOp is one step of the store script.
type storeOp struct {
	kind string // batch | purge | merge | flush | compact | abandon | reopen
	// svc is the service of a batch.
	svc string
	// items are the upserts and touches of a batch, or the patterns a
	// merge folds in from a second store.
	items []item
	// n is the purge threshold: patterns below this count are purged.
	n int64
	// shards is the shard count for reopen.
	shards int
}

// item is one upsert (n: seed count) or touch (n: increment) of the
// pattern text in svc.
type item struct {
	touch bool
	svc   string
	text  string
	n     int64
}

func up(svc, text string, n int64) item    { return item{svc: svc, text: text, n: n} }
func touch(svc, text string, n int64) item { return item{touch: true, svc: svc, text: text, n: n} }

// storeScript returns the store workload: rounds of group-committed
// batches, purges and a merge with barriers between them, reopened
// under a changing shard count, with one process kill (abandon: flush,
// drop the store, reopen) per round.
func storeScript() []storeOp {
	const (
		req     = "request handled in ms"
		conn    = "connection closed by peer"
		blk     = "block received from node"
		scratch = "temporary scratch entry"
	)
	shardSeq := []int{2, 3, 1, 2, 3, 1, 4, 2}
	var ops []storeOp
	for r, next := range shardSeq {
		a := fmt.Sprintf("svc-%d-a", r)
		b := fmt.Sprintf("svc-%d-b", r)
		// Survivors are touched past the purge thresholds; victims stay at
		// their seed count of 1.
		ops = append(ops,
			storeOp{kind: "batch", svc: a, items: []item{up(a, req, 1), up(a, conn, 1), touch(a, req, 3)}},
			storeOp{kind: "batch", svc: b, items: []item{up(b, blk, 1), up(b, scratch, 1), touch(b, blk, 2), touch(b, blk, 2)}},
			// Upserts plus coalescing touches land as one journal append; a
			// crash inside it must lose or keep the batch without
			// double-applying anything.
			storeOp{kind: "batch", svc: a, items: []item{
				up(a, "batched request completed", 1),
				up(a, "batched session opened", 1),
				touch(a, "batched request completed", 4),
				touch(a, "batched request completed", 2),
				touch(a, "batched session opened", 3),
			}},
			storeOp{kind: "flush"},
			// Removes both victims (count 1), and last round's merged
			// newcomers (count 2).
			storeOp{kind: "purge", n: 3},
			storeOp{kind: "compact"},
			storeOp{kind: "batch", svc: a, items: []item{up(a, "cache invalidated for key", 1), touch(a, "cache invalidated for key", 4)}},
			// Re-add the pattern purged before the last barrier: a
			// legitimate re-discovery must not be confused with a
			// resurrected delete.
			storeOp{kind: "batch", svc: b, items: []item{up(b, scratch, 1)}},
			// A second instance's database folded in (seqrtg merge): one
			// pattern both know, one new per service.
			storeOp{kind: "merge", items: []item{up(a, req, 2), up(a, "merged from peer", 2), up(b, "merged block report", 2)}},
			// Delete the re-added pattern again before the barrier.
			storeOp{kind: "purge", n: 2},
			storeOp{kind: "flush"},
			storeOp{kind: "abandon"},
			storeOp{kind: "reopen", shards: next},
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

// storeRun executes the store script on a fault filesystem while
// maintaining the model.
type storeRun struct {
	ops   []storeOp
	f     *vfs.Fault
	st    *store.Store
	model map[string]*idState
}

// storeSubject is a store subject starting from the database files
// (name → content; nil is an empty directory).
func storeSubject(name string, files map[string][]byte) Subject {
	ops := storeScript()
	return Subject{
		Name:           name,
		MinPoints:      200,
		Stride:         7,
		ShortStride:    29,
		ReopenShards:   []int{2, 5},
		RecoveryShards: 3,
		Start: func() (*vfs.Fault, Run, error) {
			f, model, err := seedStore(files)
			if err != nil {
				return nil, nil, err
			}
			return f, &storeRun{ops: ops, model: model}, nil
		},
	}
}

// StoreSubjects returns the two store subjects: store/v2 from an empty
// directory, and store/upgrade from the committed v1 database in
// legacyDir, whose first open replays v1 journals, compacts and retires
// the stray legacy journal under the crash schedule. The upgrade model
// is read through the store under test, so it is pinned to
// legacyDir.golden.json — what the v1 writer's own build read back — and
// a replay bug cannot hide by agreeing with itself.
func StoreSubjects(legacyDir string) ([]Subject, error) {
	entries, err := os.ReadDir(legacyDir)
	if err != nil {
		return nil, err
	}
	files := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(legacyDir, e.Name()))
		if err != nil {
			return nil, err
		}
		files[e.Name()] = data
	}
	raw, err := os.ReadFile(legacyDir + ".golden.json")
	if err != nil {
		return nil, err
	}
	var golden []struct {
		ID    string `json:"id"`
		Count int64  `json:"count"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		return nil, err
	}
	_, model, err := seedStore(files)
	if err != nil {
		return nil, err
	}
	if len(model) != len(golden) {
		return nil, fmt.Errorf("seed model holds %d patterns, golden %d", len(model), len(golden))
	}
	for _, g := range golden {
		if s := model[g.ID]; s == nil || s.barrierCount != g.Count {
			return nil, fmt.Errorf("seed model disagrees with golden pattern %s (count %d)", g.ID, g.Count)
		}
	}
	return []Subject{storeSubject("store/v2", nil), storeSubject("store/upgrade", files)}, nil
}

// seedStore returns a fault filesystem whose database directory holds
// files (fully synced) with its step counter at zero, and the model of
// the patterns they hold: every one acknowledged, as a database found on
// disk is.
func seedStore(files map[string][]byte) (*vfs.Fault, map[string]*idState, error) {
	f := vfs.NewFault()
	model := map[string]*idState{}
	if len(files) == 0 {
		return f, model, nil
	}
	if err := f.MkdirAll(storeDir); err != nil {
		return nil, nil, err
	}
	for name, data := range files {
		w, err := f.Create(path.Join(storeDir, name))
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
	st, err := store.OpenOptions(storeDir, store.Options{Shards: 2, FS: f.Image()})
	if err != nil {
		return nil, nil, fmt.Errorf("open seed database: %w", err)
	}
	for _, p := range st.All() {
		model[p.ID] = &idState{service: p.Service, barrierExists: true, barrierCount: p.Count, curExists: true, curCount: p.Count}
	}
	return f, model, st.Close()
}

// pattern builds the pattern an item names, with its ID and seed count.
func (it item) pattern() (*patterns.Pattern, error) {
	p, err := patterns.FromText(it.text, it.svc)
	if err != nil {
		return nil, err
	}
	p.Count = it.n
	return p, nil
}

// state returns the model entry of p, creating it on first mention.
func (r *storeRun) state(p *patterns.Pattern) *idState {
	s := r.model[p.ID]
	if s == nil {
		s = &idState{service: p.Service}
		r.model[p.ID] = s
	}
	return s
}

// upserted folds an attempted upsert of p into the model.
func (r *storeRun) upserted(p *patterns.Pattern) {
	s := r.state(p)
	s.curExists = true
	s.curCount += p.Count
	s.upsertSinceBarrier = true
}

// promoteBarrier records that a barrier succeeded: everything attempted
// so far is now guaranteed durable.
func (r *storeRun) promoteBarrier() {
	for _, s := range r.model {
		s.barrierExists = s.curExists
		s.barrierCount = s.curCount
		s.upsertSinceBarrier = false
		s.deleteSinceBarrier = false
	}
}

func (r *storeRun) open(f *vfs.Fault, shards int) error {
	st, err := store.OpenOptions(storeDir, store.Options{Shards: shards, FS: f})
	if err == nil {
		r.st = st
	}
	return err
}

// Exec implements Run. Failed mutations are folded into the model as
// maybe-applied: the store applies a batch in memory before journaling
// it, and a crash image may retain a torn journal tail containing it, so
// the model's upper bound must include it.
func (r *storeRun) Exec(f *vfs.Fault) (bool, error) {
	r.f = f
	if err := r.open(f, 2); err != nil {
		if f.Crashed() {
			return false, nil
		}
		return false, fmt.Errorf("initial open: %w", err)
	}
	for _, op := range r.ops {
		ok, err := r.step(op)
		if err != nil || !ok {
			return false, err
		}
	}
	if err := r.st.Close(); err != nil {
		return false, nil
	}
	r.promoteBarrier()
	return true, nil
}

// step executes one op; false means the armed crash fired.
func (r *storeRun) step(op storeOp) (bool, error) {
	switch op.kind {
	case "batch":
		ops := make([]store.Op, 0, len(op.items))
		for _, it := range op.items {
			p, err := it.pattern()
			if err != nil {
				return false, err
			}
			if it.touch {
				ops = append(ops, store.Op{Kind: store.OpTouch, ID: p.ID, N: it.n, When: baseTime})
				r.state(p).curCount += it.n
				continue
			}
			ops = append(ops, store.Op{Kind: store.OpUpsert, Pattern: p})
			r.upserted(p)
		}
		unknown, err := r.st.ApplyBatch(op.svc, ops)
		if len(unknown) > 0 {
			return false, fmt.Errorf("batch touched unknown patterns %v", unknown)
		}
		return err == nil, nil
	case "merge":
		peer, err := store.OpenOptions("", store.Options{Shards: 1})
		if err != nil {
			return false, err
		}
		for _, it := range op.items {
			p, err := it.pattern()
			if err != nil {
				return false, err
			}
			p.LastMatched = baseTime
			if _, err := peer.ApplyBatch(p.Service, []store.Op{{Kind: store.OpUpsert, Pattern: p}}); err != nil {
				return false, err
			}
			r.upserted(p)
		}
		return r.st.MergeFrom(peer) == nil, nil
	case "purge":
		// PurgeIDs reports every pattern it removed from memory, even when
		// a journal append failed mid-scan; patterns it did not report
		// were never touched.
		removed, err := r.st.PurgeIDs(op.n, baseTime.Add(1000*time.Hour))
		for _, id := range removed {
			if s := r.model[id]; s != nil {
				s.curExists = false
				s.deleteSinceBarrier = true
			}
		}
		return err == nil, nil
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
		// A process kill right after a successful flush: drop the store
		// without closing it and reopen over the same files. The journals
		// are non-empty, so the reopen replays them and compacts (the
		// migration path).
		if err := r.open(r.f, r.st.Shards()); err != nil {
			return false, nil
		}
	case "reopen":
		if err := r.st.Close(); err != nil {
			return false, nil
		}
		r.promoteBarrier()
		if err := r.open(r.f, op.shards); err != nil {
			return false, nil
		}
	default:
		return false, fmt.Errorf("unknown op kind %q", op.kind)
	}
	return true, nil
}

// Check implements Run. A complete run leaves every pattern at its
// barrier state, so the same bounds check it exactly.
func (r *storeRun) Check(img *vfs.Fault, shards int, _ bool) error {
	st, err := store.OpenOptions(storeDir, store.Options{Shards: shards, FS: img})
	if err != nil {
		return fmt.Errorf("replay errored: %w", err)
	}
	defer st.Close()
	for id, s := range r.model {
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

// Recover implements Run: open (replay, migrate), read every pattern's
// count, and shut down cleanly.
func (r *storeRun) Recover(img *vfs.Fault, shards int) (map[string]int64, error) {
	st, err := store.OpenOptions(storeDir, store.Options{Shards: shards, FS: img})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, p := range st.All() {
		out[p.ID] = p.Count
	}
	return out, st.Close()
}
