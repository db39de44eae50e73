// Package archive is the pattern-aware compressed log store: once the
// engine matches a message against a mined pattern, the message is
// fully described by (timestamp, pattern ID, variable values), and that
// triple compresses far better than the raw text. Records accumulate in
// in-memory blocks per (shard, service, time bucket). A flush seals
// them into CRC-framed, DEFLATE-compressed columnar blocks and writes
// one write-once segment file per time bucket it touches: the bucket's
// block frames back to back plus a footer that indexes them (see
// codec.go for the block frame, segment.go for the segment layout).
//
// Durability contract: a block becomes durable when the segment that
// holds it is published — when the block reaches Options.FlushRecords
// records, on an explicit Flush, and on Close. A segment is written to
// a temporary name, synced once, and then atomically renamed into
// place; readers ignore temporary files, so a crash mid-flush can lose
// the unpublished in-memory tail but can never surface a torn segment.
// Every record appended before a completed Flush is queryable after
// reopen (internal/crashtest proves both properties under systematic
// crash schedules).
//
// Sealing happens under the shard locks and only moves blocks to a
// sealed list; encoding and the file I/O run outside every lock, and
// the finished segment joins the in-memory segment index under one
// short lock. A Query snapshots the index, the sealed list and the open
// blocks at one instant, so it sees every record exactly once however
// it interleaves with a flush.
//
// All file I/O goes through the internal/vfs seam, so the fault
// injection and the crash harness built for the pattern store apply
// unchanged — the vfsonly analyzer enforces this.
package archive

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/vfs"
)

// Options configures an Archive. The zero value is usable: real
// filesystem, hour buckets, 8192-record blocks, a 64-block cache.
type Options struct {
	// FS is the filesystem seam. Defaults to vfs.OS{}.
	FS vfs.FS
	// BucketSeconds is the width of one time bucket. Records are
	// assigned to buckets by truncating their timestamp; all blocks of
	// one archive directory must be written with the same width.
	// Defaults to 3600 (hour buckets).
	BucketSeconds int64
	// FlushRecords seals an in-memory block when it reaches this many
	// records. Defaults to 8192.
	FlushRecords int
	// CacheBlocks bounds the LRU cache of decoded blocks, and
	// separately the one of segment footers. Defaults to 64.
	CacheBlocks int
	// Shards is the number of append shards (service-hashed). Defaults
	// to GOMAXPROCS.
	Shards int
	// Metrics receives archive instrumentation. Defaults to a private
	// obs.Metrics.
	Metrics *obs.Metrics
	// Retention, when positive, ages out published segments: every
	// Flush (and therefore Close) deletes segment files whose bucket
	// ended more than Retention before now. Each retired file counts
	// into seqrtg_archive_retired_blocks_total. Zero keeps segments
	// forever.
	Retention time.Duration
	// Now is the clock the retention horizon is measured against;
	// defaults to time.Now. Tests and the crash harness inject a fixed
	// clock for deterministic schedules.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = vfs.OS{}
	}
	if o.BucketSeconds <= 0 {
		o.BucketSeconds = 3600
	}
	if o.FlushRecords <= 0 {
		o.FlushRecords = 8192
	}
	if o.CacheBlocks <= 0 {
		o.CacheBlocks = 64
	}
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.Metrics == nil {
		o.Metrics = obs.New()
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// blockKey identifies one open in-memory block within a shard.
type blockKey struct {
	service string
	bucket  int64 // bucket start, unix seconds
}

// memBlock is a block being filled. All of its columns grow by
// amortized append, so the steady-state append path allocates nothing.
// Bytes inside a column's length are never rewritten, which is what
// lets a query scan a copy of the block without the shard lock.
type memBlock struct {
	service string
	bucket  int64
	count   int
	minTS   int64 // unix nanoseconds
	maxTS   int64
	lastTS  int64 // previous record's timestamp, for delta encoding
	pats    []string
	// patIdx indexes pats once the dictionary outgrows a linear scan;
	// nil until then.
	patIdx map[string]uint32
	ts     []byte // svarint deltas
	pat    []byte // uvarint dictionary indexes
	vars   []byte // uncompressed variable column
}

// smallDict is the dictionary size up to which a block finds a pattern
// by scanning pats instead of through patIdx.
const smallDict = 8

// blockHint is the size of a service's last sealed block, which sizes
// the service's next block so that a batch's worth of appends fills it
// without regrowing a column.
type blockHint struct {
	ts, pat, vars, pats int
}

// maxHints bounds a shard's hint table; past it the table starts over.
const maxHints = 4096

func newMemBlock(service string, bucket int64, h blockHint) *memBlock {
	b := &memBlock{service: service, bucket: bucket, lastTS: bucket * int64(1e9)}
	// One allocation for the three columns, each capped at its own
	// region (with a quarter's headroom), so one outgrowing its region
	// moves only itself.
	ts, pat, vars := h.ts+h.ts/4, h.pat+h.pat/4, h.vars+h.vars/4
	if n := ts + pat + vars; n > 0 {
		cols := make([]byte, n)
		b.ts, b.pat, b.vars = cols[:0:ts], cols[ts:ts:ts+pat], cols[ts+pat:ts+pat]
	}
	if h.pats > 0 {
		b.pats = make([]string, 0, h.pats)
	}
	if h.pats > smallDict {
		b.indexPatterns()
	}
	return b
}

// rawSize is the size of b's columns before compression.
func (b *memBlock) rawSize() int { return len(b.ts) + len(b.pat) + len(b.vars) }

// hint describes b for sizing its service's next block.
func (b *memBlock) hint() blockHint {
	return blockHint{ts: len(b.ts), pat: len(b.pat), vars: len(b.vars), pats: len(b.pats)}
}

// indexPatterns builds patIdx from pats.
func (b *memBlock) indexPatterns() {
	b.patIdx = make(map[string]uint32, 2*max(len(b.pats), smallDict))
	for i, id := range b.pats {
		b.patIdx[id] = uint32(i)
	}
}

// patternIndex returns patternID's dictionary index, adding it when new.
//
//seqrtg:noalloc
func (b *memBlock) patternIndex(patternID string) uint32 {
	if b.patIdx != nil {
		if idx, ok := b.patIdx[patternID]; ok {
			return idx
		}
	} else {
		for i, id := range b.pats {
			if id == patternID {
				return uint32(i)
			}
		}
	}
	idx := uint32(len(b.pats))
	b.pats = append(b.pats, patternID)
	if b.patIdx != nil {
		b.patIdx[patternID] = idx
	}
	return idx
}

// append adds one record. The caller builds patIdx once the
// dictionary outgrows smallDict (see Archive.Append).
//
//seqrtg:noalloc
func (b *memBlock) append(patternID string, ns int64, vars [][]byte) {
	idx := b.patternIndex(patternID)
	b.ts = binary.AppendVarint(b.ts, ns-b.lastTS)
	b.lastTS = ns
	b.pat = binary.AppendUvarint(b.pat, uint64(idx))
	b.vars = binary.AppendUvarint(b.vars, uint64(len(vars)))
	for _, v := range vars {
		b.vars = binary.AppendUvarint(b.vars, uint64(len(v)))
		b.vars = append(b.vars, v...)
	}
	if b.count == 0 || ns < b.minTS {
		b.minTS = ns
	}
	if b.count == 0 || ns > b.maxTS {
		b.maxTS = ns
	}
	b.count++
}

// shard serializes appends and seals for its slice of the service
// space.
type shard struct {
	mu    sync.Mutex
	open  map[blockKey]*memBlock // guarded by mu
	hints map[string]blockHint   // guarded by mu; per service, from its last sealed block
	keys  []blockKey             // guarded by mu; sorted-key scratch for deterministic seals
}

// segment is the resident index entry of one published segment file (or
// block file of the earlier format). Its footer is read on demand
// through the footer cache.
type segment struct {
	name   string
	bucket int64 // bucket start, unix seconds
	seq    int64
	legacy bool // a b-*.blk file: one block frame, no footer
}

// segWriter holds the segment write path's reusable buffers.
type segWriter struct {
	parts   []encodePart  // one per encoding worker
	buf     []byte        // the segment being assembled
	entries []footerEntry // its footer
	batch   []*memBlock   // the sealed blocks one publish writes
	group   []*memBlock   // the blocks of one bucket within batch
}

// encodePart is one encoding worker's run of consecutive blocks of a
// segment, encoded into the worker's own buffer.
type encodePart struct {
	enc    blockEncoder
	blocks []*memBlock
	buf    []byte
	ends   []int // end offset in buf of each block's frame
	err    error
}

func (p *encodePart) encode() {
	p.buf, p.ends, p.err = p.buf[:0], p.ends[:0], nil
	for _, b := range p.blocks {
		if p.buf, p.err = p.enc.appendBlock(p.buf, b); p.err != nil {
			return
		}
		p.ends = append(p.ends, len(p.buf))
	}
}

// minBlocksPerWorker is the fewest blocks worth an encoding worker of
// their own. Compression is nearly all of a flush's CPU time, and the
// blocks of one segment compress independently.
const minBlocksPerWorker = 32

// encode compresses group's blocks in up to GOMAXPROCS parallel runs of
// about equal raw size and returns the runs in block order.
func (w *segWriter) encode(group []*memBlock) []encodePart {
	k := max(1, min(runtime.GOMAXPROCS(0), len(group)/minBlocksPerWorker))
	for len(w.parts) < k {
		w.parts = append(w.parts, encodePart{})
	}
	parts := w.parts[:k]
	total := 0
	for _, b := range group {
		total += b.rawSize()
	}
	lo, sum := 0, 0
	for i := range parts {
		hi := lo
		for hi < len(group) && (i == k-1 || sum < total*(i+1)/k) {
			sum += group[hi].rawSize()
			hi++
		}
		parts[i].blocks = group[lo:hi]
		lo = hi
	}
	var wg sync.WaitGroup
	for i := 1; i < k; i++ {
		wg.Add(1)
		go func(p *encodePart) {
			defer wg.Done()
			p.encode()
		}(&parts[i])
	}
	parts[0].encode()
	wg.Wait()
	return parts
}

// Archive is the compressed log store. All methods are safe for
// concurrent use.
//
// Lock order: a shard's mu before the archive's mu. flushMu is never
// taken while holding either.
type Archive struct {
	dir    string
	opts   Options
	m      *obs.Metrics
	shards []shard
	seq    atomic.Int64
	// blocks and footers are two LRU caches of one kind, each bounded
	// by Options.CacheBlocks, so footer reads never evict blocks.
	blocks  *lruCache[blockData]
	footers *lruCache[segFooter]

	mu sync.Mutex
	// segs is the segment index in ascending seq, which is publication
	// order. Appends may extend it in place; every other change copies
	// it, so a query may read a snapshot of it without the lock.
	segs []segment // guarded by mu
	// sealed holds the blocks sealed but not yet published, in seal
	// order. Seals append; a publish replaces it with a copy.
	sealed []*memBlock // guarded by mu

	// flushMu serializes publishing and retirement: a publish writes
	// every sealed block, so a Flush that returns has covered every
	// block sealed before it, whichever call sealed it.
	flushMu sync.Mutex
	w       segWriter // guarded by flushMu
}

// Open opens (creating if needed) the archive directory and indexes
// its segments by name. Leftover temporary files from a crashed flush
// are removed; published segments are left in place, unread, and the
// sequence counter resumes past them.
func Open(dir string, opts Options) (*Archive, error) {
	o := opts.withDefaults()
	if err := o.FS.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("archive: create dir: %w", err)
	}
	names, err := o.FS.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("archive: read dir: %w", err)
	}
	var segs []segment
	for _, name := range names {
		if strings.HasPrefix(name, "tmp-") {
			// An unpublished flush from a crashed process: invisible to
			// readers, safe to discard. Removal is best-effort — a
			// lingering tmp file is still never served.
			if err := o.FS.Remove(filepath.Join(dir, name)); err != nil {
				o.Metrics.ArchiveIOErrors.Inc()
			}
			continue
		}
		if bucket, seq, legacy, ok := parseSegName(name); ok {
			segs = append(segs, segment{name: name, bucket: bucket, seq: seq, legacy: legacy})
		}
	}
	slices.SortFunc(segs, func(x, y segment) int { return cmp.Compare(x.seq, y.seq) })
	a := &Archive{
		dir:     dir,
		opts:    o,
		m:       o.Metrics,
		shards:  make([]shard, o.Shards),
		blocks:  newLRUCache[blockData](o.CacheBlocks),
		footers: newLRUCache[segFooter](o.CacheBlocks),
		segs:    segs,
	}
	for i := range a.shards {
		a.shards[i].open = make(map[blockKey]*memBlock)
	}
	if len(segs) > 0 {
		a.seq.Store(segs[len(segs)-1].seq)
	}
	return a, nil
}

//seqrtg:noalloc
func (a *Archive) shardFor(service string) *shard {
	return &a.shards[route.Shard(service, len(a.shards))]
}

// bucketFor truncates a unix-nanosecond timestamp to its bucket start
// (unix seconds), flooring so pre-epoch timestamps land in the bucket
// that contains them.
//
//seqrtg:noalloc
func (a *Archive) bucketFor(ns int64) int64 {
	sec := ns / int64(1e9)
	if ns%int64(1e9) < 0 {
		sec--
	}
	b := sec / a.opts.BucketSeconds
	if sec%a.opts.BucketSeconds < 0 {
		b--
	}
	return b * a.opts.BucketSeconds
}

// Append records one matched message: its timestamp, the pattern that
// matched it, and the variable values in pattern-position order. The
// value slices are copied immediately and may be reused by the caller.
// msgBytes is the raw message length, credited to the compression-ratio
// accounting. The record is acknowledged as durable only by a later
// successful Flush (or Close, or the automatic seal when the block
// fills, which publishes before Append returns).
func (a *Archive) Append(service, patternID string, ts time.Time, vars [][]byte, msgBytes int) error {
	ns := ts.UnixNano()
	key := blockKey{service: service, bucket: a.bucketFor(ns)}
	sh := a.shardFor(service)
	sh.mu.Lock()
	b := sh.open[key]
	if b == nil {
		b = newMemBlock(service, key.bucket, sh.hints[service])
		sh.open[key] = b
	}
	b.append(patternID, ns, vars)
	if b.patIdx == nil && len(b.pats) > smallDict {
		b.indexPatterns()
	}
	full := b.count >= a.opts.FlushRecords
	if full {
		delete(sh.open, key)
		sh.hint(b)
		a.mu.Lock()
		a.sealed = append(a.sealed, b)
		a.mu.Unlock()
	}
	sh.mu.Unlock()
	a.m.ArchiveRecords.Inc()
	a.m.ArchiveBytesRaw.Add(int64(msgBytes))
	if !full {
		return nil
	}
	a.flushMu.Lock()
	defer a.flushMu.Unlock()
	return a.publishLocked()
}

// Flush seals every open in-memory block, publishes every sealed one,
// then applies the retention horizon. After a Flush returns nil, every
// record appended before the call is durable and queryable (until
// retention later ages its segment out).
func (a *Archive) Flush() error {
	a.flushMu.Lock()
	defer a.flushMu.Unlock()
	for i := range a.shards {
		a.seal(&a.shards[i])
	}
	err := a.publishLocked()
	if rerr := a.retireLocked(); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// seal moves the shard's open blocks, in (service, bucket) order, to
// the sealed list.
func (a *Archive) seal(sh *shard) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.open) == 0 {
		return
	}
	sh.keys = sh.keys[:0]
	for key := range sh.open {
		sh.keys = append(sh.keys, key)
	}
	sortBlockKeys(sh.keys)
	a.mu.Lock()
	for _, key := range sh.keys {
		b := sh.open[key]
		a.sealed = append(a.sealed, b)
		delete(sh.open, key)
		sh.hint(b)
	}
	a.mu.Unlock()
}

// hint records a sealed block's size for its service's next block.
// Called with the shard lock held.
func (sh *shard) hint(b *memBlock) {
	if sh.hints == nil || len(sh.hints) >= maxHints {
		sh.hints = make(map[string]blockHint)
	}
	sh.hints[b.service] = b.hint()
}

// publishLocked writes every sealed block into segments, one per
// bucket, and installs each in the index. Called with flushMu held;
// the shard locks are not held, and the archive lock only to read the
// sealed list and to install a finished segment. A segment that fails
// leaves its blocks sealed and queryable, and the next publish retries
// them under a fresh sequence number.
func (a *Archive) publishLocked() error {
	w := &a.w
	a.mu.Lock()
	w.batch = append(w.batch[:0], a.sealed...)
	a.mu.Unlock()
	if len(w.batch) == 0 {
		return nil
	}
	start := time.Now()
	var first error
	pending := w.batch
	for len(pending) > 0 {
		bucket := pending[0].bucket
		w.group = w.group[:0]
		rest := pending[:0]
		for _, b := range pending {
			if b.bucket == bucket {
				w.group = append(w.group, b)
			} else {
				rest = append(rest, b)
			}
		}
		pending = rest
		if err := a.writeSegment(bucket, w.group); err != nil && first == nil {
			first = err
		}
	}
	clear(w.batch)
	clear(w.group)
	a.m.ArchiveFlushDuration.ObserveSince(start)
	return first
}

// writeSegment encodes one bucket's sealed blocks into a segment,
// publishes it with tmp → write → one Sync → rename, and installs it in
// the index, taking its blocks off the sealed list in the same critical
// section.
func (a *Archive) writeSegment(bucket int64, group []*memBlock) error {
	w := &a.w
	buf, entries := w.buf[:0], w.entries[:0]
	for _, p := range w.encode(group) {
		if p.err != nil {
			return p.err
		}
		base, start := len(buf), 0
		buf = append(buf, p.buf...)
		for i, b := range p.blocks {
			entries = append(entries, footerEntry{
				service: b.service, count: b.count, minTS: b.minTS, maxTS: b.maxTS,
				off: int64(base + start), len: int64(p.ends[i] - start),
			})
			start = p.ends[i]
		}
	}
	buf = appendFooter(buf, bucket, entries)
	w.buf, w.entries = buf, entries
	seq := a.seq.Add(1)
	name := segName(bucket, seq)
	tmp := filepath.Join(a.dir, fmt.Sprintf("tmp-%08d.seg", seq))
	if err := a.writeFile(tmp, filepath.Join(a.dir, name), buf); err != nil {
		a.m.ArchiveIOErrors.Inc()
		return fmt.Errorf("archive: publish segment: %w", err)
	}
	a.footers.put(cacheKey{name: name}, &segFooter{bucket: bucket, blocks: slices.Clone(entries)})
	a.mu.Lock()
	a.segs = append(a.segs, segment{name: name, bucket: bucket, seq: seq})
	a.sealed = withoutBlocks(a.sealed, group)
	a.mu.Unlock()
	a.m.ArchiveSegments.Inc()
	a.m.ArchiveBlocks.Add(int64(len(group)))
	a.m.ArchiveBytesStored.Add(int64(len(buf)))
	return nil
}

// withoutBlocks returns a copy of sealed without the blocks of group,
// which is a subsequence of sealed in the same order. The copy leaves
// the old array to any query that still reads it.
func withoutBlocks(sealed, group []*memBlock) []*memBlock {
	if len(sealed) == len(group) {
		return nil
	}
	out := make([]*memBlock, 0, len(sealed)-len(group))
	j := 0
	for _, b := range sealed {
		if j < len(group) && b == group[j] {
			j++
			continue
		}
		out = append(out, b)
	}
	return out
}

// writeFile publishes data under final: written to tmp, synced, then
// renamed into place. On failure tmp is removed best-effort.
func (a *Archive) writeFile(tmp, final string, data []byte) error {
	f, err := a.opts.FS.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		_ = a.opts.FS.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		_ = a.opts.FS.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = a.opts.FS.Remove(tmp)
		return err
	}
	if err := a.opts.FS.Rename(tmp, final); err != nil {
		_ = a.opts.FS.Remove(tmp)
		return err
	}
	return nil
}

// retireLocked deletes published segments older than the retention
// horizon: a segment is retired once its whole bucket — not just its
// oldest record — lies beyond Retention. Called with flushMu held.
// Deletion goes through the vfs seam, so the crash harness covers
// crash-during-retire; a crash here leaves some expired segments
// behind, and the next Flush retries them. A failed delete keeps the
// segment indexed, so the next Flush retries it too. Retirement runs
// after publishing, never during Open: reopening an archive must not
// mutate the directory beyond tmp cleanup.
func (a *Archive) retireLocked() error {
	if a.opts.Retention <= 0 {
		return nil
	}
	horizon := a.opts.Now().Add(-a.opts.Retention)
	a.mu.Lock()
	segs := a.segs
	a.mu.Unlock()
	var first error
	var retired map[int64]bool
	for _, s := range segs {
		if time.Unix(s.bucket+a.opts.BucketSeconds, 0).After(horizon) {
			continue
		}
		if err := a.opts.FS.Remove(filepath.Join(a.dir, s.name)); err != nil {
			a.m.ArchiveIOErrors.Inc()
			if first == nil {
				first = fmt.Errorf("archive: retire segment: %w", err)
			}
			continue
		}
		if retired == nil {
			retired = make(map[int64]bool)
		}
		retired[s.seq] = true
		a.m.ArchiveRetiredBlocks.Inc()
	}
	if retired != nil {
		a.mu.Lock()
		kept := make([]segment, 0, len(a.segs)-len(retired))
		for _, s := range a.segs {
			if !retired[s.seq] {
				kept = append(kept, s)
			}
		}
		a.segs = kept
		a.mu.Unlock()
	}
	return first
}

// sortBlockKeys orders keys by (service, bucket) so seal order — and
// with it the order of blocks in a segment — is deterministic.
func sortBlockKeys(keys []blockKey) {
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && blockKeyLess(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}

func blockKeyLess(a, b blockKey) bool {
	if a.service != b.service {
		return a.service < b.service
	}
	return a.bucket < b.bucket
}

// Close flushes every open block. The archive holds no long-lived file
// handles, so Close is exactly a final Flush.
func (a *Archive) Close() error { return a.Flush() }
