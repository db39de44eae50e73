package crashtest

// The archive subjects drive a scripted append workload whose only
// mutating disk operations are segment publishes (and, under
// retention, segment retirements). The invariants:
//
//   - no torn segment: every published segment and its footer decode
//     — Blocks() decodes each segment whole and reports no corruption,
//     and Query neither errors nor panics;
//   - no lost acknowledged record: every record appended before the
//     last completed Flush (or Close) is queryable after reopen;
//   - no phantom, no duplicate, no mutation: every served record was
//     appended exactly once — the unique sequence number each record
//     carries as its variable appears at most once, with the service,
//     pattern ID and timestamp the append gave it;
//   - a complete run serves no dropped record: the tails abandoned
//     without a barrier were never sealed;
//   - the live view is whole: after every flush, failed or not, the
//     running archive serves every record appended since it was opened
//     exactly once — a publish that failed left its blocks sealed and
//     queryable, and the next flush writes them.
//
// archive/retention reruns the workload with an ageing horizon armed, so
// the schedule also lands on every side of each segment deletion the
// retire pass performs. The invariants weaken in exactly one place: an
// acknowledged record in a retireable bucket may be absent (its segment
// was retired, or the crash cut mid-retire and the next flush will
// retry); records past the horizon may never survive a complete run.

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/archive"
	"repro/internal/vfs"
)

// archiveDir is the simulated archive directory.
const archiveDir = "archive"

// archiveOpts is the archive configuration under test: small buckets
// and a low seal threshold so the script crosses bucket boundaries and
// triggers automatic seals, a fixed shard count so the flush order — and
// with it the crash-step schedule — is deterministic.
func archiveOpts(f *vfs.Fault) archive.Options {
	return archive.Options{
		FS:            f,
		BucketSeconds: 60,
		FlushRecords:  5,
		CacheBlocks:   4,
		Shards:        2,
	}
}

// The retention clock is pinned 20 minutes past baseTime and Retention
// is 14 minutes, so the buckets of rounds 0–2 (minutes 0–5, bucket end
// ≤ horizon baseTime+6m) are retireable and rounds 3–5 are not. Keeping
// the clock constant keeps the crash-step schedule deterministic.
var retentionNow = baseTime.Add(20 * time.Minute)

const retentionWindow = 14 * time.Minute

func retentionOpts(f *vfs.Fault) archive.Options {
	o := archiveOpts(f)
	o.Retention = retentionWindow
	o.Now = func() time.Time { return retentionNow }
	return o
}

// retireable reports whether the record's whole bucket lies beyond the
// retention horizon, mirroring the archive's bucket-end comparison.
func retireable(r rec) bool {
	bucket := r.ts.Unix() - r.ts.Unix()%60
	bucketEnd := time.Unix(bucket+60, 0)
	return !bucketEnd.After(retentionNow.Add(-retentionWindow))
}

// recState tracks where one appended record stands against the
// durability contract.
type recState int

const (
	// statePending: appended, not yet covered by a flush barrier. A
	// crash image may or may not serve it (it may have been auto-sealed).
	statePending recState = iota
	// stateAcked: a flush barrier succeeded after the append — the
	// record must be served by every reopen.
	stateAcked
	// stateDropped: the archive holding the record was abandoned
	// (process kill) before any barrier covered it. It may survive only
	// if an automatic seal happened to flush it first.
	stateDropped
)

// rec is the model's view of one appended record. The unique sequence
// number doubles as the record's single variable value, which is how a
// served entry is traced back to the append that produced it.
type rec struct {
	seq     int
	service string
	pattern string
	ts      time.Time
	state   recState
}

// archiveOp is one step of the archive script.
type archiveOp struct {
	kind string // append | flush | flushfail | abandon | reopen
	// svc and pattern identify the appended record; minute offsets its
	// timestamp from baseTime (one bucket is 60 s wide, so consecutive
	// minutes land in different buckets).
	svc, pattern string
	minute       int
}

// archiveScript returns the archive workload: rounds of appends over
// four services and two buckets, with explicit flush barriers, one
// process kill (abandon) or clean close-and-reopen per round, and in
// two rounds a flush whose first segment sync fails. Every flush seals
// blocks of both buckets, so it publishes two segments, one of them
// holding three blocks; svc-a's sixth append to its block crosses
// FlushRecords, so an automatic seal publishes a one-block segment
// mid-round.
func archiveScript() []archiveOp {
	app := func(svc, pattern string, minute int) archiveOp {
		return archiveOp{kind: "append", svc: svc, pattern: pattern, minute: minute}
	}
	var ops []archiveOp
	for r := 0; r < 8; r++ {
		for i := 0; i < 6; i++ {
			ops = append(ops, app("svc-a", "p-req", 2*r))
			if i%2 == 0 {
				ops = append(ops, app("svc-b", "p-conn", 2*r), app("svc-c", "p-blk", 2*r))
			}
			if i%3 == 0 {
				ops = append(ops, app("svc-d", "p-req", 2*r+1))
			}
		}
		if r%4 == 1 {
			ops = append(ops, archiveOp{kind: "flushfail"})
		}
		ops = append(ops,
			archiveOp{kind: "flush"},
			app("svc-a", "p-req", 2*r+1),
			app("svc-b", "p-blk", 2*r+1),
		)
		if r%2 == 0 {
			ops = append(ops, archiveOp{kind: "abandon"})
		} else {
			ops = append(ops, archiveOp{kind: "reopen"})
		}
	}
	return ops
}

// archiveRun executes the archive script on a fault filesystem while
// maintaining the model.
type archiveRun struct {
	ops  []archiveOp
	opts func(*vfs.Fault) archive.Options
	// retiredOK, when non-nil, marks records whose block the retention
	// horizon may have aged out.
	retiredOK func(rec) bool
	f         *vfs.Fault
	a         *archive.Archive
	// appended is every record an append call was made for, in order —
	// the upper bound of what a crash image may serve (the record is in
	// the in-memory block even when the call's auto-seal failed). Each
	// record's state says whether a reopen must, may, or should not
	// serve it.
	appended []rec
}

// ArchiveSubjects returns the archive subjects: archive, and
// archive/retention, which must produce more crash points than archive —
// retention that performs no deletes adds none.
func ArchiveSubjects() []Subject {
	ops := archiveScript()
	subject := func(name string, opts func(*vfs.Fault) archive.Options, retiredOK func(rec) bool) Subject {
		return Subject{
			Name:           name,
			MinPoints:      100,
			Stride:         5,
			ShortStride:    17,
			ReopenShards:   []int{2, 5},
			RecoveryShards: 2,
			Start: func() (*vfs.Fault, Run, error) {
				return vfs.NewFault(), &archiveRun{ops: ops, opts: opts, retiredOK: retiredOK}, nil
			},
		}
	}
	base := subject("archive", archiveOpts, nil)
	retention := subject("archive/retention", retentionOpts, retireable)
	retention.Exceeds = &base
	return []Subject{base, retention}
}

// setState moves every record in state from to state to.
func (r *archiveRun) setState(from, to recState) {
	for i := range r.appended {
		if r.appended[i].state == from {
			r.appended[i].state = to
		}
	}
}

func (r *archiveRun) open() error {
	a, err := archive.Open(archiveDir, r.opts(r.f))
	if err == nil {
		r.a = a
	}
	return err
}

// Exec implements Run.
func (r *archiveRun) Exec(f *vfs.Fault) (bool, error) {
	r.f = f
	if err := r.open(); err != nil {
		if f.Crashed() {
			return false, nil
		}
		return false, fmt.Errorf("initial open: %w", err)
	}
	for _, op := range r.ops {
		switch op.kind {
		case "append":
			seq := len(r.appended)
			ts := baseTime.Add(time.Duration(op.minute) * time.Minute).Add(time.Duration(seq) * time.Millisecond)
			r.appended = append(r.appended, rec{seq: seq, service: op.svc, pattern: op.pattern, ts: ts})
			v := []byte(strconv.Itoa(seq))
			if err := r.a.Append(op.svc, op.pattern, ts, [][]byte{v}, 80); err != nil {
				return false, nil
			}
		case "flush":
			if err := r.a.Flush(); err != nil {
				return false, nil
			}
			r.setState(statePending, stateAcked)
			if err := r.live(); err != nil {
				return false, err
			}
		case "flushfail":
			// A sync that fails without a crash: the flush reports it and
			// acknowledges nothing; the process goes on.
			f.FailNextSync()
			err := r.a.Flush()
			if f.Crashed() {
				return false, nil
			}
			if err == nil {
				return false, fmt.Errorf("flush succeeded over a failed sync")
			}
			if err := r.live(); err != nil {
				return false, err
			}
		case "abandon":
			// A process kill: drop the archive without closing it and
			// reopen over the same files. The unsealed tail is lost — its
			// records were never acknowledged.
			r.setState(statePending, stateDropped)
			if err := r.open(); err != nil {
				return false, nil
			}
		case "reopen":
			if err := r.a.Close(); err != nil {
				return false, nil
			}
			r.setState(statePending, stateAcked)
			if err := r.open(); err != nil {
				return false, nil
			}
		default:
			return false, fmt.Errorf("unknown op kind %q", op.kind)
		}
	}
	if err := r.a.Close(); err != nil {
		return false, nil
	}
	r.setState(statePending, stateAcked)
	return true, nil
}

// live checks the running archive's view: every record it holds —
// appended since the last open, or published before it — is served
// exactly once, faithful to its append.
func (r *archiveRun) live() error {
	got, err := served(r.a)
	if err != nil {
		return fmt.Errorf("live view: %w", err)
	}
	if err := r.faithful(got); err != nil {
		return fmt.Errorf("live view: %w", err)
	}
	for _, want := range r.appended {
		_, ok := got[want.seq]
		if !ok && want.state != stateDropped && !r.expired(want) {
			return fmt.Errorf("live view: lost record %d (%d of %d appended served)", want.seq, len(got), len(r.appended))
		}
	}
	return nil
}

// faithful checks that every served record was appended, with the
// service, pattern and timestamp the append gave it.
func (r *archiveRun) faithful(got map[int]archive.Entry) error {
	for seq, e := range got {
		if seq < 0 || seq >= len(r.appended) {
			return fmt.Errorf("phantom record %d: never appended", seq)
		}
		want := r.appended[seq]
		if e.Service != want.service || e.PatternID != want.pattern || !e.Time.Equal(want.ts) {
			return fmt.Errorf("record %d mutated: got (%s, %s, %s), appended (%s, %s, %s)",
				seq, e.Service, e.PatternID, e.Time, want.service, want.pattern, want.ts)
		}
	}
	return nil
}

// expired reports whether the retention horizon may have aged out the
// record's segment.
func (r *archiveRun) expired(rec rec) bool { return r.retiredOK != nil && r.retiredOK(rec) }

// served queries everything a reopened archive holds and returns it
// keyed by the sequence number each record carries as its variable.
func served(a *archive.Archive) (map[int]archive.Entry, error) {
	entries, err := a.Query(archive.Query{})
	if err != nil {
		return nil, fmt.Errorf("query errored: %w", err)
	}
	out := make(map[int]archive.Entry, len(entries))
	for _, e := range entries {
		if len(e.Vars) != 1 {
			return nil, fmt.Errorf("served a record with %d variables, want 1: %+v", len(e.Vars), e)
		}
		seq, err := strconv.Atoi(e.Vars[0])
		if err != nil {
			return nil, fmt.Errorf("served a record with a non-numeric sequence %q", e.Vars[0])
		}
		if _, dup := out[seq]; dup {
			return nil, fmt.Errorf("record %d served twice", seq)
		}
		out[seq] = e
	}
	return out, nil
}

// Check implements Run. An acknowledged record the retention horizon
// may have aged out is allowed to be absent, but if served it must still
// be byte-faithful. A complete run must serve exactly the acknowledged
// set inside the horizon.
func (r *archiveRun) Check(img *vfs.Fault, shards int, complete bool) error {
	o := r.opts(img)
	o.Shards = shards
	a, err := archive.Open(archiveDir, o)
	if err != nil {
		return fmt.Errorf("reopen errored: %w", err)
	}
	blocks, err := a.Blocks()
	if err != nil {
		return fmt.Errorf("block listing errored: %w", err)
	}
	for _, b := range blocks {
		if b.Corrupt != "" {
			return fmt.Errorf("published a torn segment %s: %s", b.File, b.Corrupt)
		}
	}
	got, err := served(a)
	if err != nil {
		return err
	}
	if err := r.faithful(got); err != nil {
		return err
	}
	for _, want := range r.appended {
		expired := r.expired(want)
		_, ok := got[want.seq]
		switch {
		case !ok && want.state == stateAcked && !expired:
			return fmt.Errorf("lost acknowledged record %d (%d of %d appended served)", want.seq, len(got), len(r.appended))
		case ok && complete && want.state == stateDropped:
			return fmt.Errorf("complete run served dropped record %d", want.seq)
		case ok && complete && expired:
			return fmt.Errorf("complete run served record %d past its retention horizon", want.seq)
		}
	}
	return nil
}

// Recover implements Run: the first open removes leftover temporary
// files; the summary is every served record's timestamp.
func (r *archiveRun) Recover(img *vfs.Fault, shards int) (map[string]int64, error) {
	o := r.opts(img)
	o.Shards = shards
	a, err := archive.Open(archiveDir, o)
	if err != nil {
		return nil, err
	}
	got, err := served(a)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(got))
	for seq, e := range got {
		out[strconv.Itoa(seq)] = e.Time.UnixNano()
	}
	return out, nil
}
