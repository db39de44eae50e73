// Package store is Sequence-RTG's persistent pattern database.
//
// The paper stores discovered patterns in a SQL database so that analysis
// survives across batch executions: patterns in a one-to-many relationship
// with services, up to three unique example messages each, and statistics
// (match count, last-matched date, complexity) that drive review and
// export. This package provides the same capability on the standard
// library alone: an embedded, crash-safe, file-backed store with
//
//   - an atomic JSON snapshot (written to a temporary file and renamed),
//   - append-only write-ahead journals replayed on open, so work between
//     snapshots is never lost, and
//   - automatic compaction once the journals grow past a threshold.
//
// # Sharding
//
// The store is sharded by service: a pattern lives in the shard selected
// by fnv32a(service) mod N (N defaults to GOMAXPROCS, configurable via
// Options.Shards). Patterns never cross services (§IV of the paper), so
// every mutation of one service's patterns touches exactly one shard —
// its mutex and its journal file — and service partitions persist their
// discoveries with no cross-service contention. Each shard appends to
// its own numbered journal (journal-000.wal, journal-001.wal, ...);
// the snapshot stays a single file written atomically across all shards.
//
// A store written by the pre-sharding layout (one journal.wal) or by a
// store with a different shard count reopens losslessly: every journal
// file present is replayed by content (records are routed by service
// hash, or by ID probe for touches), and whenever replay found any
// records the store compacts immediately, so journal files on disk only
// ever hold records written under the current shard count and replay
// order can never interleave layouts.
//
// Lock ordering: a mutation locks exactly one shard. Operations that
// need a consistent cut (All, Compact, Close, purge scans) lock every
// shard in ascending index order and never acquire a second store's
// locks, so no lock cycle exists.
//
// # Durability
//
// All disk access goes through an injectable filesystem (internal/vfs):
// production runs on vfs.OS, tests on vfs.Fault, which can fail or tear
// any write and freeze the simulated disk at every step
// (internal/store/crashtest drives the full crash matrix). The contract:
//
//   - A mutation is acknowledged-durable once a subsequent Flush, Compact
//     or Close returns nil: Flush fsyncs every journal, Compact fsyncs
//     the snapshot before renaming it into place. Acknowledged mutations
//     survive any later crash.
//   - Mutations between the last such barrier and a crash may or may not
//     survive (the journal tail can tear mid-record); replay keeps every
//     whole record before the tear and never errors on the tear itself.
//   - Compaction is atomic: the snapshot is written to a temporary file,
//     fsynced, then renamed. A crash between the rename and the journal
//     truncation cannot double-apply the journals, because the snapshot
//     records a compaction epoch and every journal record carries the
//     epoch it was written under — replay skips records older than the
//     snapshot.
//
// A Store opened with an empty directory path keeps everything in memory,
// which the benchmarks and the "empty pattern database" speed experiment
// of the paper (§IV, Fig 5) rely on.
package store

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/patterns"
	"repro/internal/store/codec"
	"repro/internal/vfs"
)

const (
	snapshotFile  = "patterns.json"
	legacyJournal = "journal.wal"
	// compactAfter is the number of journal records (across all shards)
	// after which Compact runs automatically on the next mutation.
	compactAfter = 50000
)

// journalName returns the journal file of shard i.
func journalName(i int) string { return fmt.Sprintf("journal-%03d.wal", i) }

// ErrClosed is returned by every mutating method after Close. Test with
// errors.Is.
var ErrClosed = errors.New("store: closed")

// ErrUnknownPattern is wrapped by Touch/TouchIn when the pattern ID is
// not in the store — typically because a concurrent Purge removed it
// between match and flush. Callers that can re-upsert should treat it as
// recoverable; test with errors.Is.
var ErrUnknownPattern = errors.New("store: unknown pattern")

// Options tunes OpenOptions.
type Options struct {
	// Shards is the number of service-hash shards (and journal files for
	// a file-backed store). Zero or negative selects GOMAXPROCS.
	Shards int
	// FS is the filesystem the store runs on. Nil selects the real one
	// (vfs.OS); tests inject vfs.Fault to exercise I/O failures and
	// crash schedules.
	FS vfs.FS
}

// shard is one service-hash partition of the store: its own pattern
// maps, mutex and journal file. The field annotations below are
// machine-checked by the guardedby analyzer (cmd/seqlint).
type shard struct {
	id      int
	st      *Store
	mu      sync.Mutex
	byID    map[string]*patterns.Pattern            // guarded by mu
	bySvc   map[string]map[string]*patterns.Pattern // service → id → pattern; guarded by mu
	journal vfs.File                                // guarded by mu
	jw      *bufio.Writer                           // guarded by mu
	// encBuf is the shard's reusable record-encode scratch buffer: every
	// journal append (single-record or batch) is encoded into it and
	// written in one piece, so the hot path allocates nothing once the
	// buffer has grown to the working-set record size. Guarded by mu.
	encBuf []byte
	// suspect marks the journal as possibly ending in a torn or
	// half-flushed record after an I/O error: appending more records
	// after such a tail would make them unreadable on replay, so the
	// next Flush recovers by compacting (the snapshot is rebuilt from
	// memory and the journal truncated) instead of trusting the file.
	// guarded by mu.
	suspect bool
}

// Store is a persistent pattern database. All methods are safe for
// concurrent use.
type Store struct {
	dir    string
	fs     vfs.FS
	shards []*shard
	closed atomic.Bool
	// count is the number of stored patterns across shards.
	count atomic.Int64
	// jcount counts journal records since the last compaction; crossing
	// compactAfter schedules an automatic Compact.
	jcount     atomic.Int64
	compacting atomic.Bool
	// epoch is the compaction epoch: the snapshot on disk carries the
	// epoch of the compaction that wrote it, and every journal record
	// carries the epoch it was written under. Replay skips records from
	// epochs before the snapshot's, which is what keeps a crash between
	// the snapshot rename and the journal truncation from applying the
	// same records twice. Written only under compactMu + all shard locks;
	// read under any shard lock.
	epoch atomic.Int64
	// compactMu serialises Compact/Close against each other; shard locks
	// are always taken after it, in ascending order.
	compactMu sync.Mutex
	m         *obs.Metrics
}

// SetMetrics redirects the store's instrumentation to m (one Metrics is
// shared across all pipeline stages of an instance). Call before
// concurrent use.
func (s *Store) SetMetrics(m *obs.Metrics) {
	m.StoreShardContention.EnsureLen(len(s.shards))
	m.StoreShardOps.EnsureLen(len(s.shards))
	m.StoreShards.Set(int64(len(s.shards)))
	s.m = m
	m.StorePatterns.Set(s.count.Load())
}

// Open loads (or creates) a pattern database in dir with the default
// shard count. An empty dir opens a purely in-memory store.
func Open(dir string) (*Store, error) {
	return OpenOptions(dir, Options{})
}

// OpenOptions is Open with tuning. The shard count is a property of the
// open instance, not of the on-disk data: a database written with any
// shard count (including the pre-sharding single-journal layout) opens
// losslessly under any other.
func OpenOptions(dir string, opts Options) (*Store, error) {
	n := opts.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = vfs.OS{}
	}
	s := &Store{dir: dir, fs: fsys, shards: make([]*shard, n)}
	for i := range s.shards {
		s.shards[i] = &shard{
			id:    i,
			st:    s,
			byID:  make(map[string]*patterns.Pattern),
			bySvc: make(map[string]map[string]*patterns.Pattern),
		}
	}
	s.SetMetrics(obs.New())
	if dir == "" {
		return s, nil
	}
	if err := s.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	migrate, stray, err := s.replayJournals()
	if err != nil {
		return nil, err
	}
	for _, sh := range s.shards {
		f, err := s.fs.OpenAppend(filepath.Join(dir, journalName(sh.id)))
		if err != nil {
			s.closeJournals()
			return nil, fmt.Errorf("store: open journal: %w", err)
		}
		// The store is not shared yet, but the uncontended lock keeps
		// the guardedby discipline uniform and machine-checkable.
		sh.mu.Lock()
		sh.journal = f
		sh.jw = bufio.NewWriter(f)
		sh.mu.Unlock()
	}
	if migrate {
		// The journals held records (possibly written under a different
		// shard count) or the layout does not match this shard count.
		// Fold every replayed record into a fresh snapshot, then retire
		// the files that no shard owns, so the next open sees only the
		// current layout.
		if err := s.Compact(); err != nil {
			s.closeJournals()
			return nil, err
		}
		for _, name := range stray {
			if err := s.fs.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				s.closeJournals()
				return nil, fmt.Errorf("store: retire journal %s: %w", name, err)
			}
		}
	}
	return s, nil
}

func (s *Store) closeJournals() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.journal != nil {
			sh.journal.Close()
		}
		sh.mu.Unlock()
	}
}

// shardFor routes a service to its shard.
func (s *Store) shardFor(service string) *shard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	h := fnv.New32a()
	h.Write([]byte(service))
	// Reduce in uint32: int(h.Sum32()) is negative for hashes >= 2^31 on
	// 32-bit platforms, and a negative modulo would index out of range.
	return s.shards[int(h.Sum32()%uint32(len(s.shards)))]
}

// lock acquires the shard mutex, counting acquisitions that had to wait
// into the per-shard contention metric.
func (sh *shard) lock() {
	if sh.mu.TryLock() {
		return
	}
	sh.st.m.StoreShardContention.Inc(sh.id)
	sh.mu.Lock()
}

// lockAll acquires every shard lock in ascending order (the store's lock
// ordering rule); unlockAll releases them.
func (s *Store) lockAll() {
	for _, sh := range s.shards {
		sh.lock()
	}
}

func (s *Store) unlockAll() {
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
}

func (s *Store) loadSnapshot() error {
	data, err := s.fs.ReadFile(filepath.Join(s.dir, snapshotFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: read snapshot: %w", err)
	}
	snap, err := codec.DecodeSnapshot(data)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.epoch.Store(snap.Epoch)
	for _, p := range snap.Patterns {
		sh := s.shardFor(p.Service)
		sh.mu.Lock()
		sh.insertLocked(p)
		sh.mu.Unlock()
	}
	s.m.StorePatterns.Set(s.count.Load())
	return nil
}

// record is one journal entry; its wire encoding (v2 frames written,
// legacy v1 JSON lines replayed) lives in internal/store/codec.
type record = codec.Record

// replayJournals replays every journal file present in the directory —
// the legacy single journal.wal and any sharded journal-NNN.wal,
// whatever shard count wrote them. It reports whether the layout needs
// migrating to the current shard count and which file names no current
// shard owns.
//
// Any journal that contained records forces migration: the writer's
// shard count is not recorded on disk, so a non-empty journal may have
// been written under a different count (GOMAXPROCS varies across
// machines). Compacting immediately folds the replayed state into the
// snapshot and truncates every journal, which is what guarantees that
// journal files on disk only ever hold records from one layout — if
// records from two shard counts could accumulate, a service's older
// records could live in a file that sorts after the file holding its
// newer ones, and a later replay would apply them out of order.
func (s *Store) replayJournals() (migrate bool, stray []string, err error) {
	legacy := filepath.Join(s.dir, legacyJournal)
	switch serr := s.fs.Stat(legacy); {
	case serr == nil:
		if err := s.replayFile(legacy); err != nil {
			return false, nil, err
		}
		migrate = true
		stray = append(stray, legacyJournal)
	case !errors.Is(serr, fs.ErrNotExist):
		// The journal's existence could not be determined (permissions,
		// I/O error). Opening anyway would silently drop its records, so
		// refuse to open instead.
		return false, nil, fmt.Errorf("store: stat legacy journal: %w", serr)
	}
	entries, lerr := s.fs.ReadDir(s.dir)
	if lerr != nil && !errors.Is(lerr, fs.ErrNotExist) {
		return false, nil, fmt.Errorf("store: list journals: %w", lerr)
	}
	var names []string
	for _, name := range entries {
		if ok, _ := path.Match("journal-*.wal", name); ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	owned := make(map[string]bool, len(s.shards))
	for i := range s.shards {
		owned[journalName(i)] = true
	}
	for _, base := range names {
		if err := s.replayFile(filepath.Join(s.dir, base)); err != nil {
			return false, nil, err
		}
		if !owned[base] {
			// Written by a store with more shards than this one.
			migrate = true
			stray = append(stray, base)
		}
	}
	// replayFile counts every replayed record into jcount, and jcount is
	// zero before replay on a fresh open.
	if s.jcount.Load() > 0 {
		migrate = true
	}
	return migrate, stray, nil
}

// replayFile replays one journal file. Records are routed by content
// (service hash for upserts, ID probe for touch/delete), so any writer
// layout replays correctly.
func (s *Store) replayFile(name string) error {
	f, err := s.fs.Open(name)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: open journal: %w", err)
	}
	defer f.Close()
	dec := codec.NewReader(f)
	for {
		var r record
		if _, err := dec.Next(&r); err != nil {
			// io.EOF is the clean end; anything else is a torn final
			// record (crash mid-write), expected and tolerated — what was
			// already replayed is kept. The reader detects each record's
			// format from its first byte, so v1, v2 and mixed-format
			// journals all replay here with no layout knowledge.
			return nil
		}
		// Records older than the snapshot's epoch were already folded
		// into it by a compaction that crashed before truncating this
		// journal. Skip them, but still count them so the open-time
		// migration compaction cleans the file.
		if r.E >= s.epoch.Load() {
			s.applyReplay(r)
		}
		s.jcount.Add(1)
	}
}

// applyReplay routes one replayed record to its shard by content.
// Replay runs before the store is shared; the per-shard locks are
// uncontended and keep the guardedby discipline uniform.
func (s *Store) applyReplay(r record) {
	switch r.Op {
	case "upsert":
		if r.Pattern != nil {
			sh := s.shardFor(r.Pattern.Service)
			sh.mu.Lock()
			sh.mergeLocked(r.Pattern)
			sh.mu.Unlock()
		}
	case "touch":
		for _, sh := range s.shards {
			sh.mu.Lock()
			hit := sh.touchLocked(r)
			sh.mu.Unlock()
			if hit {
				return
			}
		}
	case "delete":
		for _, sh := range s.shards {
			sh.mu.Lock()
			hit := sh.deleteLocked(r.ID)
			sh.mu.Unlock()
			if hit {
				return
			}
		}
	}
	s.m.StorePatterns.Set(s.count.Load())
}

// insertLocked adds a pattern known to be absent (snapshot load).
func (sh *shard) insertLocked(p *patterns.Pattern) {
	sh.byID[p.ID] = p
	svc := sh.bySvc[p.Service]
	if svc == nil {
		svc = make(map[string]*patterns.Pattern)
		sh.bySvc[p.Service] = svc
	}
	svc[p.ID] = p
	sh.st.count.Add(1)
}

// touchLocked applies a touch record if the pattern lives here.
func (sh *shard) touchLocked(r record) bool {
	p, ok := sh.byID[r.ID]
	if !ok {
		return false
	}
	p.Count += r.N
	if r.When.After(p.LastMatched) {
		p.LastMatched = r.When
	}
	if r.Example != "" {
		p.AddExample(r.Example)
	}
	return true
}

// deleteLocked removes a pattern if it lives here.
func (sh *shard) deleteLocked(id string) bool {
	p, ok := sh.byID[id]
	if !ok {
		return false
	}
	delete(sh.byID, id)
	if svc := sh.bySvc[p.Service]; svc != nil {
		delete(svc, id)
		if len(svc) == 0 {
			delete(sh.bySvc, p.Service)
		}
	}
	sh.st.count.Add(-1)
	return true
}

// mergeLocked inserts a pattern or merges it with the stored pattern of
// the same ID. The argument is not retained.
func (sh *shard) mergeLocked(p *patterns.Pattern) {
	old, ok := sh.byID[p.ID]
	if !ok {
		sh.insertLocked(p.Clone())
		return
	}
	old.Count += p.Count
	if p.LastMatched.After(old.LastMatched) {
		old.LastMatched = p.LastMatched
	}
	if !p.FirstSeen.IsZero() && (old.FirstSeen.IsZero() || p.FirstSeen.Before(old.FirstSeen)) {
		old.FirstSeen = p.FirstSeen
	}
	for _, e := range p.Examples {
		old.AddExample(e)
	}
}

// countIO records one failed disk operation in the I/O error counter
// (exported as seqrtg_store_io_errors_total) and returns the wrapped
// error, so every persistence failure is counted exactly where it is
// surfaced.
func (s *Store) countIO(err error) error {
	s.m.StoreIOErrors.Inc()
	return err
}

// logLocked appends one record to the shard's journal, encoded through
// the shard's reusable buffer (no per-append allocation).
// Callers hold the shard lock; compaction is scheduled by the caller
// after releasing it.
func (sh *shard) logLocked(r record) error {
	if sh.jw == nil {
		sh.st.jcount.Add(1)
		return nil
	}
	r.E = sh.st.epoch.Load()
	buf, err := codec.AppendRecord(sh.encBuf[:0], &r)
	if err != nil {
		return fmt.Errorf("store: encode journal record: %w", err)
	}
	sh.encBuf = buf
	return sh.writeFramesLocked(buf, 1)
}

// writeFramesLocked appends n already-encoded records to the journal in
// one write. Callers hold the shard lock.
func (sh *shard) writeFramesLocked(buf []byte, n int64) error {
	if _, err := sh.jw.Write(buf); err != nil {
		// The journal may now end mid-record, and bufio keeps its error
		// sticky. Reset the writer so the shard is not wedged forever and
		// leave recovery (a truncating compaction) to the next barrier.
		sh.suspect = true
		sh.jw.Reset(sh.journal)
		return sh.st.countIO(fmt.Errorf("store: append journal: %w", err))
	}
	sh.st.m.StoreJournalAppends.Add(n)
	sh.st.jcount.Add(n)
	return nil
}

// maybeCompact runs Compact when the journals have grown past the
// threshold. Called after every mutation with no locks held; the
// compacting flag keeps concurrent mutators from stampeding. Losing the
// race with Close is not an error: the mutation was already applied and
// Close's own compaction makes it durable, so the caller must not see a
// failure for work that succeeded.
func (s *Store) maybeCompact() error {
	if s.jcount.Load() < compactAfter {
		return nil
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return nil
	}
	defer s.compacting.Store(false)
	if s.jcount.Load() < compactAfter {
		return nil
	}
	if err := s.Compact(); err != nil && !errors.Is(err, ErrClosed) {
		return err
	}
	return nil
}

// Upsert inserts a pattern or merges it with the stored pattern of the
// same ID (summing counts, merging examples, widening the activity
// window). The argument is not retained and not mutated: a pattern
// handed in without an ID is journaled and stored under its computed
// ID, but the caller's copy is left untouched.
func (s *Store) Upsert(p *patterns.Pattern) error {
	p = withID(p)
	sh := s.shardFor(p.Service)
	sh.lock()
	if s.closed.Load() {
		sh.mu.Unlock()
		return ErrClosed
	}
	sh.mergeLocked(p)
	s.m.StoreUpserts.Inc()
	s.m.StoreShardOps.Inc(sh.id)
	s.m.StorePatterns.Set(s.count.Load())
	err := sh.logLocked(record{Op: "upsert", Pattern: p})
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	return s.maybeCompact()
}

// withID returns p itself when its ID is set, or a clone carrying the
// computed ID otherwise — never writing through the caller's pattern.
func withID(p *patterns.Pattern) *patterns.Pattern {
	if p.ID != "" {
		return p
	}
	cp := p.Clone()
	cp.ID = patterns.HashID(cp.Text(), cp.Service)
	return cp
}

// Touch records n additional matches of pattern id at time when, with an
// optional example message. Without the service the ID cannot be routed,
// so Touch probes every shard; hot paths that know the service should
// use TouchIn.
func (s *Store) Touch(id string, n int64, when time.Time, example string) error {
	for _, sh := range s.shards {
		done, err := sh.touch(id, n, when, example)
		if err != nil || done {
			return err
		}
	}
	return fmt.Errorf("store: touch unknown pattern %s: %w", id, ErrUnknownPattern)
}

// TouchIn is Touch for a known service: it locks only that service's
// shard, which is what lets concurrent service partitions flush their
// match statistics without contending.
func (s *Store) TouchIn(service, id string, n int64, when time.Time, example string) error {
	done, err := s.shardFor(service).touch(id, n, when, example)
	if err != nil {
		return err
	}
	if !done {
		return fmt.Errorf("store: touch unknown pattern %s: %w", id, ErrUnknownPattern)
	}
	return nil
}

func (sh *shard) touch(id string, n int64, when time.Time, example string) (bool, error) {
	s := sh.st
	sh.lock()
	if s.closed.Load() {
		sh.mu.Unlock()
		return false, ErrClosed
	}
	r := record{Op: "touch", ID: id, N: n, When: when, Example: example}
	if !sh.touchLocked(r) {
		sh.mu.Unlock()
		return false, nil
	}
	s.m.StoreTouches.Inc()
	s.m.StoreShardOps.Inc(sh.id)
	err := sh.logLocked(r)
	sh.mu.Unlock()
	if err != nil {
		return true, err
	}
	return true, s.maybeCompact()
}

// OpKind discriminates the operations of an ApplyBatch batch.
type OpKind uint8

const (
	// OpUpsert inserts a pattern or merges it with the stored pattern of
	// the same ID.
	OpUpsert OpKind = iota
	// OpTouch records additional matches of a stored pattern.
	OpTouch
)

// Op is one operation of an ApplyBatch batch.
type Op struct {
	Kind OpKind
	// Pattern is the upsert payload (OpUpsert only). Its Service must be
	// the batch's service. Not retained, not mutated.
	Pattern *patterns.Pattern
	// ID, N, When and Example are the touch payload (OpTouch only).
	ID      string
	N       int64
	When    time.Time
	Example string
}

// pendingTouch accumulates the coalesced journal record for one
// pattern ID within a batch.
type pendingTouch struct {
	id      string
	n       int64
	when    time.Time
	example string
}

// ApplyBatch applies a batch of operations for one service under a
// single shard lock and commits them as one group journal append:
// upserts are journaled in order, and every touch of the same pattern
// ID is coalesced into one record (counts summed, latest match time,
// first example kept), so a pattern matched a thousand times in the
// batch costs one record and the whole batch costs one write. This is
// the engine's per-service persistence path; the per-call methods
// (Upsert, TouchIn) remain for callers outside the batch workflow.
//
// Touches apply against the store state at their position in the
// batch: a touch of an ID upserted earlier in the same batch succeeds.
// Touches of IDs the store does not hold are not errors — their IDs
// are returned (deduplicated) so the caller can re-seed the patterns,
// mirroring TouchIn's ErrUnknownPattern contract; everything else in
// the batch still commits.
func (s *Store) ApplyBatch(service string, ops []Op) (unknown []string, err error) {
	if len(ops) == 0 {
		return nil, nil
	}
	sh := s.shardFor(service)
	sh.lock()
	if s.closed.Load() {
		sh.mu.Unlock()
		return nil, ErrClosed
	}
	var (
		upserts    []*patterns.Pattern
		touches    []pendingTouch
		touchIdx   map[string]int
		unknownSet map[string]bool
		coalesced  int64
	)
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpUpsert:
			if op.Pattern == nil {
				sh.mu.Unlock()
				return unknown, errors.New("store: batch upsert with nil pattern")
			}
			if op.Pattern.Service != service {
				sh.mu.Unlock()
				return unknown, fmt.Errorf("store: batch upsert for service %q in a batch for %q", op.Pattern.Service, service)
			}
			p := withID(op.Pattern)
			sh.mergeLocked(p)
			upserts = append(upserts, p)
			s.m.StoreUpserts.Inc()
			s.m.StoreShardOps.Inc(sh.id)
		case OpTouch:
			if !sh.touchLocked(record{Op: codec.OpTouch, ID: op.ID, N: op.N, When: op.When, Example: op.Example}) {
				if !unknownSet[op.ID] {
					if unknownSet == nil {
						unknownSet = make(map[string]bool)
					}
					unknownSet[op.ID] = true
					unknown = append(unknown, op.ID)
				}
				continue
			}
			s.m.StoreTouches.Inc()
			s.m.StoreShardOps.Inc(sh.id)
			if j, ok := touchIdx[op.ID]; ok {
				t := &touches[j]
				t.n += op.N
				if op.When.After(t.when) {
					t.when = op.When
				}
				if t.example == "" {
					t.example = op.Example
				}
				coalesced++
				continue
			}
			if touchIdx == nil {
				touchIdx = make(map[string]int)
			}
			touchIdx[op.ID] = len(touches)
			touches = append(touches, pendingTouch{id: op.ID, n: op.N, when: op.When, example: op.Example})
		default:
			sh.mu.Unlock()
			return unknown, fmt.Errorf("store: unknown batch op kind %d", op.Kind)
		}
	}
	s.m.StorePatterns.Set(s.count.Load())
	nrec := int64(len(upserts) + len(touches))
	s.m.StoreBatchRecords.Add(nrec)
	s.m.StoreBatchCoalesced.Add(coalesced)
	if sh.jw == nil || nrec == 0 {
		s.jcount.Add(nrec)
		sh.mu.Unlock()
		return unknown, nil
	}
	// Journal layout of the batch: upserts first, then the coalesced
	// touches. Replay-safe regardless of the original interleaving —
	// a touch only entered the journal if its pattern was present when
	// it applied (pre-existing or upserted in this batch), and touch
	// and upsert merges are commutative (counts sum, match times take
	// the max), so folding the touches behind the upserts reproduces
	// the same state.
	epoch := s.epoch.Load()
	buf := sh.encBuf[:0]
	for _, p := range upserts {
		rec := record{Op: codec.OpUpsert, Pattern: p, E: epoch}
		if buf, err = codec.AppendRecord(buf, &rec); err != nil {
			break
		}
	}
	for i := range touches {
		if err != nil {
			break
		}
		t := &touches[i]
		rec := record{Op: codec.OpTouch, ID: t.id, N: t.n, When: t.when, Example: t.example, E: epoch}
		buf, err = codec.AppendRecord(buf, &rec)
	}
	sh.encBuf = buf
	if err != nil {
		sh.mu.Unlock()
		return unknown, fmt.Errorf("store: encode batch: %w", err)
	}
	werr := sh.writeFramesLocked(buf, nrec)
	sh.mu.Unlock()
	if werr != nil {
		return unknown, werr
	}
	s.m.StoreBatchBytes.Add(int64(len(buf)))
	return unknown, s.maybeCompact()
}

// Delete removes a pattern by ID.
func (s *Store) Delete(id string) error {
	for _, sh := range s.shards {
		sh.lock()
		if s.closed.Load() {
			sh.mu.Unlock()
			return ErrClosed
		}
		if !sh.deleteLocked(id) {
			sh.mu.Unlock()
			continue
		}
		s.m.StoreDeletes.Inc()
		s.m.StoreShardOps.Inc(sh.id)
		s.m.StorePatterns.Set(s.count.Load())
		err := sh.logLocked(record{Op: "delete", ID: id})
		sh.mu.Unlock()
		if err != nil {
			return err
		}
		return s.maybeCompact()
	}
	return nil
}

// Purge deletes patterns matched fewer than minCount times whose last
// match is before olderThan, returning how many were removed. This is the
// paper's save threshold: "any pattern whose count of matches is less than
// the threshold is considered useless and thus not saved" (§IV).
func (s *Store) Purge(minCount int64, olderThan time.Time) (int, error) {
	ids, err := s.PurgeIDs(minCount, olderThan)
	return len(ids), err
}

// PurgeIDs is Purge returning the IDs of the removed patterns, so the
// caller can evict them from derived state (the engine removes them from
// its parser to keep store and parser in sync).
func (s *Store) PurgeIDs(minCount int64, olderThan time.Time) ([]string, error) {
	var removed []string
	for _, sh := range s.shards {
		sh.lock()
		if s.closed.Load() {
			sh.mu.Unlock()
			return removed, ErrClosed
		}
		var err error
		for id, p := range sh.byID {
			if p.Count < minCount && p.LastMatched.Before(olderThan) {
				sh.deleteLocked(id)
				s.m.StoreDeletes.Inc()
				s.m.StoreShardOps.Inc(sh.id)
				if err = sh.logLocked(record{Op: "delete", ID: id}); err != nil {
					break
				}
				removed = append(removed, id)
			}
		}
		sh.mu.Unlock()
		if err != nil {
			return removed, err
		}
	}
	s.m.StorePatterns.Set(s.count.Load())
	return removed, s.maybeCompact()
}

// MergeFrom folds every pattern of another store into this one, summing
// statistics for patterns both stores know. This supports the horizontal
// scaling the paper describes in §IV: groups of services can be sent to
// any number of Sequence-RTG instances, "each instance could have its own
// database as there is no crossover with patterns between different
// services" — and their databases recombine losslessly.
func (s *Store) MergeFrom(other *Store) error {
	for _, p := range other.All() {
		if err := s.Upsert(p); err != nil {
			return fmt.Errorf("store: merge: %w", err)
		}
	}
	return nil
}

// Get returns a deep copy of the pattern with the given ID: mutating the
// returned pattern (its Examples, its Elements) never reaches the
// store's live state.
func (s *Store) Get(id string) (*patterns.Pattern, bool) {
	for _, sh := range s.shards {
		sh.lock()
		if p, ok := sh.byID[id]; ok {
			cp := p.Clone()
			sh.mu.Unlock()
			return cp, true
		}
		sh.mu.Unlock()
	}
	return nil, false
}

// All returns deep copies of every stored pattern, ordered by service
// then pattern text for stable output. The copies are a consistent cut:
// every shard is locked for the duration of the collection.
func (s *Store) All() []*patterns.Pattern {
	s.lockAll()
	out := make([]*patterns.Pattern, 0, s.count.Load())
	for _, sh := range s.shards {
		for _, p := range sh.byID {
			out = append(out, p.Clone())
		}
	}
	s.unlockAll()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Service != out[j].Service {
			return out[i].Service < out[j].Service
		}
		return out[i].Text() < out[j].Text()
	})
	return out
}

// ByService returns deep copies of the patterns of one service, ordered
// by pattern text. All patterns of a service live in one shard, so this
// is a single-shard indexed lookup, not a scan of the whole store.
func (s *Store) ByService(service string) []*patterns.Pattern {
	sh := s.shardFor(service)
	sh.lock()
	var out []*patterns.Pattern
	for _, p := range sh.bySvc[service] {
		out = append(out, p.Clone())
	}
	sh.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Text() < out[j].Text() })
	return out
}

// Services returns the distinct service names, sorted.
func (s *Store) Services() []string {
	var out []string
	for _, sh := range s.shards {
		sh.lock()
		for svc := range sh.bySvc {
			out = append(out, svc)
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// Count returns the number of stored patterns.
func (s *Store) Count() int { return int(s.count.Load()) }

// Shards returns the shard count of this instance.
func (s *Store) Shards() int { return len(s.shards) }

// Flush forces buffered journal records to stable storage: it is the
// durability barrier for journaled mutations. A nil return means every
// mutation applied before the call survives a crash. If an earlier I/O
// error left a shard's journal suspect (possibly ending in a torn
// record), Flush recovers by compacting — the snapshot is rebuilt from
// memory, so a nil return restores the full durability guarantee even
// after transient disk failures.
func (s *Store) Flush() error {
	suspect := false
	for _, sh := range s.shards {
		sh.lock()
		err := sh.flushLocked()
		if sh.suspect {
			suspect = true
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	if suspect {
		return s.Compact()
	}
	return nil
}

func (sh *shard) flushLocked() error {
	if sh.jw == nil {
		return nil
	}
	if err := sh.jw.Flush(); err != nil {
		sh.suspect = true
		sh.jw.Reset(sh.journal)
		return sh.st.countIO(fmt.Errorf("store: flush journal: %w", err))
	}
	if err := sh.journal.Sync(); err != nil {
		// A failed fsync leaves the kernel's view of the file unknown;
		// treat the journal as suspect and recover through a compaction.
		sh.suspect = true
		return sh.st.countIO(fmt.Errorf("store: sync journal: %w", err))
	}
	return nil
}

// Compact writes an atomic snapshot and truncates every shard journal.
// The snapshot is a consistent cut across shards: all shard locks are
// held while it is assembled and the journals restarted.
func (s *Store) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.lockAll()
	defer s.unlockAll()
	if s.closed.Load() {
		return ErrClosed
	}
	return s.compactAllLocked()
}

// compactAllLocked does the snapshot + journal restart. Callers hold
// compactMu and every shard lock.
func (s *Store) compactAllLocked() error {
	if s.dir == "" {
		s.jcount.Store(0)
		return nil
	}
	start := time.Now()
	defer func() {
		s.m.StoreCompactions.Inc()
		s.m.StoreCompactionDuration.ObserveSince(start)
	}()
	list := make([]*patterns.Pattern, 0, s.count.Load())
	for _, sh := range s.shards {
		for _, p := range sh.byID {
			list = append(list, p)
		}
	}
	sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })
	// The new snapshot gets the next epoch: once it is renamed into
	// place, every record still sitting in the journals carries an older
	// epoch and will be skipped on replay — which is what makes a crash
	// anywhere between the rename and the truncation below harmless.
	newEpoch := s.epoch.Load() + 1
	data, err := codec.EncodeSnapshot(&codec.Snapshot{Epoch: newEpoch, Patterns: list})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := filepath.Join(s.dir, snapshotFile+".tmp")
	f, err := s.fs.Create(tmp)
	if err != nil {
		return s.countIO(fmt.Errorf("store: write snapshot: %w", err))
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return s.countIO(fmt.Errorf("store: write snapshot: %w", err))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return s.countIO(fmt.Errorf("store: sync snapshot: %w", err))
	}
	if err := f.Close(); err != nil {
		return s.countIO(fmt.Errorf("store: close snapshot: %w", err))
	}
	if err := s.fs.Rename(tmp, filepath.Join(s.dir, snapshotFile)); err != nil {
		return s.countIO(fmt.Errorf("store: commit snapshot: %w", err))
	}
	// Snapshot durable: records written from here on belong to the new
	// epoch, and all journal content from before it — including anything
	// still buffered or torn — is dead weight the snapshot already holds.
	// Discard the buffers outright and truncate the files; this is also
	// what clears a suspect journal after an I/O error.
	s.epoch.Store(newEpoch)
	for _, sh := range s.shards {
		if sh.journal == nil {
			continue
		}
		sh.jw.Reset(sh.journal)
		if err := sh.journal.Truncate(0); err != nil {
			return s.countIO(fmt.Errorf("store: truncate journal: %w", err))
		}
		if _, err := sh.journal.Seek(0, io.SeekStart); err != nil {
			return s.countIO(fmt.Errorf("store: rewind journal: %w", err))
		}
		sh.suspect = false
	}
	s.jcount.Store(0)
	return nil
}

// Close flushes and closes the store. A file-backed store compacts on
// close so the snapshot is complete.
func (s *Store) Close() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.lockAll()
	defer s.unlockAll()
	if s.closed.Load() {
		return nil
	}
	s.closed.Store(true)
	if s.dir == "" {
		return nil
	}
	if err := s.compactAllLocked(); err != nil {
		return err
	}
	for _, sh := range s.shards {
		if sh.journal == nil {
			continue
		}
		if err := sh.jw.Flush(); err != nil {
			return err
		}
		if err := sh.journal.Close(); err != nil {
			return err
		}
	}
	return nil
}
