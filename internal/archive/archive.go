// Package archive is the pattern-aware compressed log store: once the
// engine matches a message against a mined pattern, the message is
// fully described by (timestamp, pattern ID, variable values), and that
// triple compresses far better than the raw text. Records accumulate in
// in-memory blocks per (shard, service, time bucket) and are sealed
// into write-once, CRC-framed, DEFLATE-compressed columnar block files
// (see codec.go for the frame layout).
//
// Durability contract: a block becomes durable when it is sealed —
// which happens when it reaches Options.FlushRecords records, on an
// explicit Flush, and on Close. A sealed block is written to a
// temporary name, synced, and then atomically renamed into place;
// readers ignore temporary files, so a crash mid-flush can lose the
// unsealed in-memory tail but can never surface a torn block. Every
// record appended before a completed Flush is queryable after reopen
// (internal/crashtest proves both properties under systematic
// crash schedules).
//
// All file I/O goes through the internal/vfs seam, so the fault
// injection and the crash harness built for the pattern store apply
// unchanged — the vfsonly analyzer enforces this.
package archive

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
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
	// CacheBlocks bounds the LRU cache of decoded blocks. Defaults
	// to 64.
	CacheBlocks int
	// Shards is the number of append shards (service-hashed). Defaults
	// to GOMAXPROCS.
	Shards int
	// Metrics receives archive instrumentation. Defaults to a private
	// obs.Metrics.
	Metrics *obs.Metrics
	// Retention, when positive, ages out published block files: every
	// Flush (and therefore Close) deletes blocks whose bucket ended more
	// than Retention before now. Retired blocks count into
	// seqrtg_archive_retired_blocks_total. Zero keeps blocks forever.
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
type memBlock struct {
	service string
	bucket  int64
	count   int
	minTS   int64 // unix nanoseconds
	maxTS   int64
	lastTS  int64 // previous record's timestamp, for delta encoding
	pats    []string
	patIdx  map[string]uint32
	ts      []byte // svarint deltas
	pat     []byte // uvarint dictionary indexes
	vars    []byte // uncompressed variable column
}

func newMemBlock(service string, bucket int64) *memBlock {
	return &memBlock{
		service: service,
		bucket:  bucket,
		lastTS:  bucket * int64(1e9),
		patIdx:  make(map[string]uint32),
	}
}

//seqrtg:noalloc
func (b *memBlock) append(patternID string, ns int64, vars [][]byte) {
	idx, ok := b.patIdx[patternID]
	if !ok {
		idx = uint32(len(b.pats))
		b.pats = append(b.pats, patternID)
		b.patIdx[patternID] = idx
	}
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

// shard serializes appends and flushes for its slice of the service
// space. Flush buffers (enc) are reused under the lock.
type shard struct {
	mu   sync.Mutex
	open map[blockKey]*memBlock
	enc  blockEncoder
	keys []blockKey // reusable sorted-key scratch for deterministic flushes
}

// Archive is the compressed log store. All methods are safe for
// concurrent use.
type Archive struct {
	dir    string
	opts   Options
	m      *obs.Metrics
	shards []shard
	seq    atomic.Int64
	cache  *blockCache
}

// Open opens (creating if needed) the archive directory. Leftover
// temporary files from a crashed flush are removed; published blocks
// are left in place and the sequence counter resumes past them.
func Open(dir string, opts Options) (*Archive, error) {
	o := opts.withDefaults()
	if err := o.FS.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("archive: create dir: %w", err)
	}
	names, err := o.FS.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("archive: read dir: %w", err)
	}
	a := &Archive{
		dir:    dir,
		opts:   o,
		m:      o.Metrics,
		shards: make([]shard, o.Shards),
		cache:  newBlockCache(o.CacheBlocks),
	}
	for i := range a.shards {
		a.shards[i].open = make(map[blockKey]*memBlock)
	}
	var maxSeq int64
	for _, name := range names {
		if strings.HasPrefix(name, "tmp-") {
			// An unpublished flush from a crashed process: invisible to
			// readers, safe to discard. Removal is best-effort — a
			// lingering tmp file is still never served.
			if err := o.FS.Remove(filepath.Join(dir, name)); err != nil {
				a.m.ArchiveIOErrors.Inc()
			}
			continue
		}
		if _, seq, ok := parseBlockName(name); ok && seq > maxSeq {
			maxSeq = seq
		}
	}
	a.seq.Store(maxSeq)
	return a, nil
}

// blockName renders a published block file name. The sequence number is
// zero-padded so the directory's sorted order is also flush order
// within a bucket.
func blockName(bucket, seq int64) string {
	return fmt.Sprintf("b-%d-%08d.blk", bucket, seq)
}

// parseBlockName inverts blockName. The bucket may be negative, so the
// name is split on the last dash.
func parseBlockName(name string) (bucket, seq int64, ok bool) {
	s, found := strings.CutPrefix(name, "b-")
	if !found {
		return 0, 0, false
	}
	s, found = strings.CutSuffix(s, ".blk")
	if !found {
		return 0, 0, false
	}
	i := strings.LastIndexByte(s, '-')
	if i <= 0 {
		return 0, 0, false
	}
	bucket, err := strconv.ParseInt(s[:i], 10, 64)
	if err != nil {
		return 0, 0, false
	}
	seq, err = strconv.ParseInt(s[i+1:], 10, 64)
	if err != nil || seq < 0 {
		return 0, 0, false
	}
	return bucket, seq, true
}

//seqrtg:noalloc
func (a *Archive) shardFor(service string) *shard {
	// Inline FNV-1a over the string: hash/fnv would force a []byte
	// conversion (an allocation) on the zero-alloc append path.
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(service); i++ {
		h ^= uint32(service[i])
		h *= prime32
	}
	return &a.shards[h%uint32(len(a.shards))]
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
// fills).
func (a *Archive) Append(service, patternID string, ts time.Time, vars [][]byte, msgBytes int) error {
	ns := ts.UnixNano()
	key := blockKey{service: service, bucket: a.bucketFor(ns)}
	sh := a.shardFor(service)
	sh.mu.Lock()
	b := sh.open[key]
	if b == nil {
		b = newMemBlock(service, key.bucket)
		sh.open[key] = b
	}
	b.append(patternID, ns, vars)
	var err error
	if b.count >= a.opts.FlushRecords {
		err = a.flushLocked(sh, key, b)
	}
	sh.mu.Unlock()
	a.m.ArchiveRecords.Inc()
	a.m.ArchiveBytesRaw.Add(int64(msgBytes))
	return err
}

// flushLocked seals one block: encode, write to a temporary file, sync,
// then atomically rename into place. Called with the shard lock held.
// On failure the block stays in memory (and keeps accepting appends);
// the next flush retries under a fresh sequence number, and the
// temporary file — which readers never look at — is removed best-effort.
func (a *Archive) flushLocked(sh *shard, key blockKey, b *memBlock) error {
	if b.count == 0 {
		delete(sh.open, key)
		return nil
	}
	data, err := sh.enc.encode(b)
	if err != nil {
		return err
	}
	seq := a.seq.Add(1)
	tmp := filepath.Join(a.dir, fmt.Sprintf("tmp-%08d.blk", seq))
	final := filepath.Join(a.dir, blockName(b.bucket, seq))
	if err := a.writeBlockFile(tmp, final, data); err != nil {
		a.m.ArchiveIOErrors.Inc()
		return fmt.Errorf("archive: flush block: %w", err)
	}
	delete(sh.open, key)
	a.m.ArchiveBlocks.Inc()
	a.m.ArchiveBytesStored.Add(int64(len(data)))
	return nil
}

func (a *Archive) writeBlockFile(tmp, final string, data []byte) error {
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

// Flush seals every open in-memory block, then applies the retention
// horizon. After a Flush returns nil, every record appended before the
// call is durable and queryable (until retention later ages its block
// out).
func (a *Archive) Flush() error {
	var first error
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		sh.keys = sh.keys[:0]
		for key := range sh.open {
			sh.keys = append(sh.keys, key)
		}
		sortBlockKeys(sh.keys)
		for _, key := range sh.keys {
			if err := a.flushLocked(sh, key, sh.open[key]); err != nil && first == nil {
				first = err
			}
		}
		sh.mu.Unlock()
	}
	if err := a.retire(); err != nil && first == nil {
		first = err
	}
	return first
}

// retire deletes published block files older than the retention
// horizon: a block is retired once its whole bucket — not just its
// oldest record — lies beyond Retention. Deletion goes through the vfs
// seam, so the crash harness covers crash-during-retire; a crash here
// leaves some expired blocks behind, and the next Flush retries them.
// Retire runs after sealing, never during Open: reopening an archive
// must not mutate the directory beyond tmp cleanup.
func (a *Archive) retire() error {
	if a.opts.Retention <= 0 {
		return nil
	}
	horizon := a.opts.Now().Add(-a.opts.Retention)
	names, err := a.opts.FS.ReadDir(a.dir)
	if err != nil {
		a.m.ArchiveIOErrors.Inc()
		return fmt.Errorf("archive: retention scan: %w", err)
	}
	var first error
	for _, name := range names {
		bucket, _, ok := parseBlockName(name)
		if !ok {
			continue
		}
		bucketEnd := time.Unix(bucket+a.opts.BucketSeconds, 0)
		if bucketEnd.After(horizon) {
			continue
		}
		if err := a.opts.FS.Remove(filepath.Join(a.dir, name)); err != nil {
			a.m.ArchiveIOErrors.Inc()
			if first == nil {
				first = fmt.Errorf("archive: retire block: %w", err)
			}
			continue
		}
		a.m.ArchiveRetiredBlocks.Inc()
	}
	return first
}

// sortBlockKeys orders keys by (service, bucket) so flush order — and
// with it the crash-schedule step numbering — is deterministic.
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
