package archive

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/frame"
	"repro/internal/vfs"
)

// Query selects archived records. Zero fields are wildcards; the time
// range is half-open, [From, To).
type Query struct {
	// Service restricts results to one service ("" = all).
	Service string
	// PatternID restricts results to one pattern ("" = all).
	PatternID string
	// From is the inclusive lower time bound (zero = unbounded).
	From time.Time
	// To is the exclusive upper time bound (zero = unbounded).
	To time.Time
	// Vars are exact-match predicates on variable positions: Vars[i] = v
	// keeps only records whose i-th variable value (pattern-position
	// order, 0-based) equals v.
	Vars map[int]string
	// Limit bounds the result set (0 = unlimited). Results are sorted by
	// time before the limit is applied.
	Limit int
}

// Entry is one archived record returned by Query.
type Entry struct {
	Time      time.Time `json:"time"`
	Service   string    `json:"service"`
	PatternID string    `json:"pattern_id"`
	Vars      []string  `json:"vars,omitempty"`
}

// entryJSON is Entry's wire form; the timestamp travels as a string in
// the canonical format.
type entryJSON struct {
	Time      string   `json:"time"`
	Service   string   `json:"service"`
	PatternID string   `json:"pattern_id"`
	Vars      []string `json:"vars,omitempty"`
}

// FormatTime renders an archive timestamp in the one canonical wire
// format: RFC 3339 with nanoseconds, normalized to UTC. Every surface
// that prints archive timestamps — pdbtool archive dump/ls and the
// server's GET /api/v1/query — goes through this (dump and the query
// endpoint via Entry.MarshalJSON), so operators can cut and paste
// timestamps between tools without reformatting.
func FormatTime(t time.Time) string {
	return t.UTC().Format(time.RFC3339Nano)
}

// MarshalJSON pins Entry's encoding: timestamps are FormatTime strings
// regardless of the location the time.Time carries.
func (e Entry) MarshalJSON() ([]byte, error) {
	return json.Marshal(entryJSON{
		Time:      FormatTime(e.Time),
		Service:   e.Service,
		PatternID: e.PatternID,
		Vars:      e.Vars,
	})
}

// UnmarshalJSON inverts MarshalJSON.
func (e *Entry) UnmarshalJSON(data []byte) error {
	var w entryJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	ts, err := time.Parse(time.RFC3339Nano, w.Time)
	if err != nil {
		return fmt.Errorf("archive: entry time: %w", err)
	}
	*e = Entry{Time: ts, Service: w.Service, PatternID: w.PatternID, Vars: w.Vars}
	return nil
}

// BlockInfo describes one published block, for operator tooling. A
// segment lists one BlockInfo per block it holds; a segment that cannot
// be decoded is listed once, with Corrupt set.
type BlockInfo struct {
	File     string    `json:"file"`
	Offset   int64     `json:"offset"`           // of the block frame within File
	Legacy   bool      `json:"legacy,omitempty"` // a b-*.blk file of the earlier format
	Service  string    `json:"service,omitempty"`
	Bucket   int64     `json:"bucket"` // bucket start, unix seconds
	Records  int       `json:"records"`
	Patterns int       `json:"patterns"`
	Bytes    int       `json:"bytes"`
	MinTime  time.Time `json:"min_time,omitzero"`
	MaxTime  time.Time `json:"max_time,omitzero"`
	Corrupt  string    `json:"corrupt,omitempty"`
}

// varPredicate is one compiled Vars entry.
type varPredicate struct {
	idx int
	val []byte
}

// compiledQuery is a Query with its bounds and predicates resolved.
type compiledQuery struct {
	q      Query
	fromNS int64
	toNS   int64
	preds  []varPredicate
}

func compileQuery(q Query) compiledQuery {
	c := compiledQuery{q: q, fromNS: math.MinInt64, toNS: math.MaxInt64}
	if !q.From.IsZero() {
		c.fromNS = q.From.UnixNano()
	}
	if !q.To.IsZero() {
		c.toNS = q.To.UnixNano()
	}
	for idx, val := range q.Vars {
		c.preds = append(c.preds, varPredicate{idx: idx, val: []byte(val)})
	}
	sort.Slice(c.preds, func(i, j int) bool { return c.preds[i].idx < c.preds[j].idx })
	return c
}

// pruneRange reports whether a block of service spanning [minTS, maxTS]
// can be skipped without reading it.
func (c *compiledQuery) pruneRange(service string, minTS, maxTS int64) bool {
	if c.q.Service != "" && service != c.q.Service {
		return true
	}
	return maxTS < c.fromNS || minTS >= c.toNS
}

// pruneBucket reports whether no record of a bucket can match.
func (c *compiledQuery) pruneBucket(bucket, width int64) bool {
	return (bucket+width)*int64(1e9) <= c.fromNS || bucket*int64(1e9) >= c.toNS
}

// pruneHeader reports whether a block with the given bounds can be
// skipped without looking at its records.
func (c *compiledQuery) pruneHeader(service string, minTS, maxTS int64, pats []string) bool {
	if c.pruneRange(service, minTS, maxTS) {
		return true
	}
	if c.q.PatternID != "" {
		found := false
		for _, id := range pats {
			if id == c.q.PatternID {
				found = true
				break
			}
		}
		if !found {
			return true
		}
	}
	return false
}

// matchVars applies the compiled variable predicates to one record's
// values.
func (c *compiledQuery) matchVars(vals [][]byte) bool {
	for _, p := range c.preds {
		if p.idx >= len(vals) || !bytes.Equal(vals[p.idx], p.val) {
			return false
		}
	}
	return true
}

// Query returns the archived records selected by q, sorted by time
// (stable across blocks: within one timestamp, block publication order
// is preserved). The query reads one snapshot of the archive — the
// published segments, the blocks sealed but not yet published, and
// the open in-memory blocks — so it sees every appended record exactly
// once whether or not a flush is in progress. Of a segment it reads
// only the footer and the blocks the footer cannot rule out, through
// the block cache. A segment that fails to decode — which only an
// external actor can produce, since segments are published by atomic
// rename — contributes no record.
func (a *Archive) Query(q Query) ([]Entry, error) {
	c := compileQuery(q)
	segs, sealed, open := a.snapshot(&c)
	var out []Entry
	var scratch [][]byte
	var blocks []*blockData
	for _, s := range segs {
		if c.pruneBucket(s.bucket, a.opts.BucketSeconds) {
			continue
		}
		var err error
		if blocks, err = a.loadSegment(s, &c, blocks[:0]); err != nil {
			continue // Blocks reports it to the operator
		}
		for _, b := range blocks {
			out, scratch = c.scanBlock(b, out, scratch)
		}
	}
	for _, b := range sealed {
		out, scratch = c.scanMemBlock(b, out, scratch)
	}
	for i := range open {
		out, scratch = c.scanMemBlock(&open[i], out, scratch)
	}
	return c.firstByTime(out), nil
}

// lockAll acquires every shard lock in ascending order.
func (a *Archive) lockAll() {
	for i := range a.shards {
		a.shards[i].mu.Lock()
	}
}

// snapshot captures, at one instant, the segment index, the sealed
// blocks and a copy of each open block the query cannot rule out.
// Holding every shard lock while the archive lock is taken means no
// block is between two of the three sets. A copied open block sees only
// the records appended before the copy: appends extend the columns past
// the copied lengths and never rewrite bytes inside them.
func (a *Archive) snapshot(c *compiledQuery) (segs []segment, sealed []*memBlock, open []memBlock) {
	a.lockAll()
	a.mu.Lock()
	segs, sealed = a.segs, a.sealed
	a.mu.Unlock()
	for i := range a.shards {
		sh := &a.shards[i]
		sh.keys = sh.keys[:0]
		for key, b := range sh.open {
			if !c.pruneHeader(b.service, b.minTS, b.maxTS, b.pats) {
				sh.keys = append(sh.keys, key)
			}
		}
		sortBlockKeys(sh.keys)
		for _, key := range sh.keys {
			open = append(open, *sh.open[key])
		}
		sh.mu.Unlock()
	}
	return segs, sealed, open
}

// firstByTime sorts out by time, keeping the scan order within one
// timestamp, and cuts it to the query's limit.
func (c *compiledQuery) firstByTime(out []Entry) []Entry {
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	if c.q.Limit > 0 && len(out) > c.q.Limit {
		out = out[:c.q.Limit]
	}
	return out
}

// keep appends a matching record to out. Under a limit it does not let
// out grow with the archive: whenever twice the limit is held, out is cut
// back to the first q.Limit by time and the query's upper bound drops to
// the time of the last one kept. A record at or after that time would
// sort behind q.Limit records scanned before it, so it cannot be in the
// result, and the bound checks that already skip records, block headers
// and bucket names beyond toNS skip it without building an Entry.
func (c *compiledQuery) keep(out []Entry, ns int64, service, patternID string, vals [][]byte) []Entry {
	out = append(out, makeEntry(ns, service, patternID, vals))
	if c.q.Limit > 0 && len(out) >= 2*c.q.Limit {
		out = c.firstByTime(out)
		c.toNS = out[len(out)-1].Time.UnixNano()
	}
	return out
}

// loadSegment appends to dst the blocks of segment s that the query
// cannot rule out from the footer or the block header. The footer and
// the blocks come from the caches when present; the file is opened only
// on a miss, and only the footer and the missing blocks' byte ranges
// are read. Any failure fails the whole segment, so a query never
// serves part of a segment it found damaged.
func (a *Archive) loadSegment(s segment, c *compiledQuery, dst []*blockData) ([]*blockData, error) {
	r := segReader{a: a, seg: s}
	defer r.close()
	f, err := r.footer()
	if err != nil {
		return nil, err
	}
	for i := range f.blocks {
		e := &f.blocks[i]
		if c.pruneRange(e.service, e.minTS, e.maxTS) {
			continue
		}
		b, err := r.block(f.bucket, e, c)
		if err != nil {
			return nil, err
		}
		if b != nil {
			dst = append(dst, b)
		}
	}
	return dst, nil
}

// segReader reads one segment's footer and blocks, opening the file on
// first use.
type segReader struct {
	a   *Archive
	seg segment
	f   vfs.File
}

func (r *segReader) file() (vfs.File, error) {
	if r.f == nil {
		f, err := r.a.opts.FS.Open(filepath.Join(r.a.dir, r.seg.name))
		if err != nil {
			return nil, err
		}
		r.f = f
	}
	return r.f, nil
}

func (r *segReader) close() {
	if r.f != nil {
		r.f.Close()
	}
}

// footer returns the segment's footer. A block file of the earlier
// format is indexed from its block header.
func (r *segReader) footer() (*segFooter, error) {
	key := cacheKey{name: r.seg.name}
	if ft, ok := r.a.footers.get(key); ok {
		return ft, nil
	}
	f, err := r.file()
	if err != nil {
		return nil, err
	}
	var ft *segFooter
	if r.seg.legacy {
		size, err := f.Seek(0, io.SeekEnd)
		if err != nil {
			return nil, err
		}
		data := make([]byte, size)
		if err := readAt(f, data, 0); err != nil {
			return nil, err
		}
		h, err := decodeHeader(data)
		if err != nil {
			return nil, err
		}
		ft = legacyFooter(h, size)
	} else if ft, err = readFooter(f); err != nil {
		return nil, err
	}
	r.a.footers.put(key, ft)
	return ft, nil
}

// block returns the decoded block e indexes, or (nil, nil) when its
// header proves no record can match — in that case the compressed
// section is never inflated.
func (r *segReader) block(bucket int64, e *footerEntry, c *compiledQuery) (*blockData, error) {
	key := cacheKey{name: r.seg.name, off: e.off}
	if b, ok := r.a.blocks.get(key); ok {
		r.a.m.ArchiveCacheHits.Inc()
		if c.pruneHeader(b.service, b.minTS, b.maxTS, b.pats) {
			return nil, nil
		}
		return b, nil
	}
	f, err := r.file()
	if err != nil {
		return nil, err
	}
	data := make([]byte, e.len)
	if err := readAt(f, data, e.off); err != nil {
		return nil, err
	}
	hdr, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	if err := e.check(bucket, hdr); err != nil {
		return nil, err
	}
	if c.pruneHeader(hdr.service, hdr.minTS, hdr.maxTS, hdr.pats) {
		return nil, nil
	}
	r.a.m.ArchiveCacheMisses.Inc()
	b, err := decodeBlock(data)
	if err != nil {
		return nil, err
	}
	r.a.blocks.put(key, b)
	return b, nil
}

// scanBlock appends the block's matching records to out.
func (c *compiledQuery) scanBlock(b *blockData, out []Entry, scratch [][]byte) ([]Entry, [][]byte) {
	patIdx := int32(-1)
	if c.q.PatternID != "" {
		for i, id := range b.pats {
			if id == c.q.PatternID {
				patIdx = int32(i)
				break
			}
		}
		if patIdx < 0 {
			return out, scratch
		}
	}
	for i := 0; i < b.count; i++ {
		ts := b.ts[i]
		if ts < c.fromNS || ts >= c.toNS {
			continue
		}
		if patIdx >= 0 && b.pat[i] != uint32(patIdx) {
			continue
		}
		scratch = b.varsAt(i, scratch[:0])
		if !c.matchVars(scratch) {
			continue
		}
		out = c.keep(out, ts, b.service, b.pats[b.pat[i]], scratch)
	}
	return out, scratch
}

// scanMemBlock appends the matching records of an open or sealed
// in-memory block to out.
func (c *compiledQuery) scanMemBlock(b *memBlock, out []Entry, scratch [][]byte) ([]Entry, [][]byte) {
	if c.pruneHeader(b.service, b.minTS, b.maxTS, b.pats) || b.count == 0 {
		return out, scratch
	}
	ts := b.bucket * int64(1e9)
	tsCol, patCol := b.ts, b.pat
	vd := frame.NewDecoder(b.vars)
	for i := 0; i < b.count; i++ {
		delta, n := binary.Varint(tsCol)
		tsCol = tsCol[n:]
		ts += delta
		idx, n := binary.Uvarint(patCol)
		patCol = patCol[n:]
		scratch = scratch[:0]
		nv := vd.Uvarint()
		for j := uint64(0); j < nv; j++ {
			scratch = append(scratch, vd.Bytes())
		}
		if ts < c.fromNS || ts >= c.toNS {
			continue
		}
		id := b.pats[idx]
		if c.q.PatternID != "" && id != c.q.PatternID {
			continue
		}
		if !c.matchVars(scratch) {
			continue
		}
		out = c.keep(out, ts, b.service, id, scratch)
	}
	return out, scratch
}

func makeEntry(ns int64, service, patternID string, vals [][]byte) Entry {
	e := Entry{
		Time:      time.Unix(0, ns).UTC(),
		Service:   service,
		PatternID: patternID,
	}
	if len(vals) > 0 {
		e.Vars = make([]string, len(vals))
		for i, v := range vals {
			e.Vars[i] = string(v)
		}
	}
	return e
}

// Blocks lists every block of every published segment with its
// header metadata, in publication order. Each segment is decoded whole;
// one that cannot be is reported once, with its corruption reason,
// rather than hidden — the operator's view after a crash or external
// damage.
func (a *Archive) Blocks() ([]BlockInfo, error) {
	a.mu.Lock()
	segs := a.segs
	a.mu.Unlock()
	var out []BlockInfo
	for _, s := range segs {
		info := BlockInfo{File: s.name, Bucket: s.bucket, Legacy: s.legacy}
		data, err := a.opts.FS.ReadFile(filepath.Join(a.dir, s.name))
		if err != nil {
			info.Corrupt = err.Error()
			out = append(out, info)
			continue
		}
		f, blocks, err := decodeSegment(data, s.legacy)
		if err != nil {
			info.Bytes = len(data)
			info.Corrupt = err.Error()
			out = append(out, info)
			continue
		}
		for i, b := range blocks {
			e := f.blocks[i]
			info.Offset = e.off
			info.Bytes = int(e.len)
			info.Service = b.service
			info.Records = b.count
			info.Patterns = len(b.pats)
			info.MinTime = time.Unix(0, b.minTS).UTC()
			info.MaxTime = time.Unix(0, b.maxTS).UTC()
			out = append(out, info)
		}
	}
	return out, nil
}
