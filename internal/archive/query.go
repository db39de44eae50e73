package archive

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"
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

// BlockInfo describes one published block file, for operator tooling.
type BlockInfo struct {
	File     string    `json:"file"`
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

// pruneHeader reports whether a block with the given bounds can be
// skipped without looking at its records.
func (c *compiledQuery) pruneHeader(service string, minTS, maxTS int64, pats []string) bool {
	if c.q.Service != "" && service != c.q.Service {
		return true
	}
	if maxTS < c.fromNS || minTS >= c.toNS {
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
// is preserved). Both sealed block files and still-open in-memory
// blocks are searched, so a query sees every appended record whether or
// not a flush has happened yet. Corrupt block files — which only an
// external actor or a mid-crash leftover can produce, since blocks are
// published by atomic rename — are skipped, never partially served.
func (a *Archive) Query(q Query) ([]Entry, error) {
	c := compileQuery(q)
	names, err := a.opts.FS.ReadDir(a.dir)
	if err != nil {
		return nil, fmt.Errorf("archive: read dir: %w", err)
	}
	var out []Entry
	var scratch [][]byte
	for _, name := range names {
		bucket, _, ok := parseBlockName(name)
		if !ok {
			continue
		}
		// Bucket pruning from the file name alone: records of a bucket
		// are timestamped within [bucket, bucket+width).
		startNS := bucket * int64(1e9)
		endNS := (bucket + a.opts.BucketSeconds) * int64(1e9)
		if endNS <= c.fromNS || startNS >= c.toNS {
			continue
		}
		b, err := a.loadBlock(name, &c)
		if err != nil {
			// A block that cannot be decoded is treated as absent; ls
			// (Blocks) reports it to the operator.
			continue
		}
		if b == nil {
			continue // pruned on header metadata before decompression
		}
		out, scratch = c.scanBlock(b, out, scratch)
	}
	out, _ = a.scanMem(&c, out, scratch)
	return c.firstByTime(out), nil
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

// loadBlock returns the decoded block for name, from the cache when
// possible. It returns (nil, nil) when the block's header metadata
// proves no record can match — in that case the compressed section is
// never inflated.
func (a *Archive) loadBlock(name string, c *compiledQuery) (*blockData, error) {
	if b, ok := a.cache.get(name); ok {
		a.m.ArchiveCacheHits.Inc()
		if c.pruneHeader(b.service, b.minTS, b.maxTS, b.pats) {
			return nil, nil
		}
		return b, nil
	}
	data, err := a.opts.FS.ReadFile(filepath.Join(a.dir, name))
	if err != nil {
		return nil, err
	}
	hdr, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	if c.pruneHeader(hdr.service, hdr.minTS, hdr.maxTS, hdr.pats) {
		return nil, nil
	}
	a.m.ArchiveCacheMisses.Inc()
	b, err := decodeBlock(data)
	if err != nil {
		return nil, err
	}
	a.cache.put(name, b)
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

// scanMem appends matching records from the still-open in-memory
// blocks, walking each shard under its lock.
func (a *Archive) scanMem(c *compiledQuery, out []Entry, scratch [][]byte) ([]Entry, [][]byte) {
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		sh.keys = sh.keys[:0]
		for key := range sh.open {
			sh.keys = append(sh.keys, key)
		}
		sortBlockKeys(sh.keys)
		for _, key := range sh.keys {
			out, scratch = c.scanMemBlock(sh.open[key], out, scratch)
		}
		sh.mu.Unlock()
	}
	return out, scratch
}

func (c *compiledQuery) scanMemBlock(b *memBlock, out []Entry, scratch [][]byte) ([]Entry, [][]byte) {
	if c.pruneHeader(b.service, b.minTS, b.maxTS, b.pats) || b.count == 0 {
		return out, scratch
	}
	ts := b.bucket * int64(1e9)
	tsCol, patCol := b.ts, b.pat
	vd := &blockDecoder{b: b.vars}
	for i := 0; i < b.count; i++ {
		delta, n := binary.Varint(tsCol)
		tsCol = tsCol[n:]
		ts += delta
		idx, n := binary.Uvarint(patCol)
		patCol = patCol[n:]
		scratch = scratch[:0]
		nv := vd.uvarint()
		for j := uint64(0); j < nv; j++ {
			scratch = append(scratch, vd.bytes())
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

// Blocks lists every published block file with its header metadata, in
// directory order. A file that cannot be decoded is reported with its
// corruption reason rather than hidden — the operator's view after a
// crash or external damage.
func (a *Archive) Blocks() ([]BlockInfo, error) {
	names, err := a.opts.FS.ReadDir(a.dir)
	if err != nil {
		return nil, fmt.Errorf("archive: read dir: %w", err)
	}
	var out []BlockInfo
	for _, name := range names {
		bucket, _, ok := parseBlockName(name)
		if !ok {
			continue
		}
		info := BlockInfo{File: name, Bucket: bucket}
		data, err := a.opts.FS.ReadFile(filepath.Join(a.dir, name))
		if err != nil {
			info.Corrupt = err.Error()
			out = append(out, info)
			continue
		}
		info.Bytes = len(data)
		hdr, err := decodeHeader(data)
		if err != nil {
			info.Corrupt = err.Error()
			out = append(out, info)
			continue
		}
		info.Service = hdr.service
		info.Records = hdr.count
		info.Patterns = len(hdr.pats)
		info.MinTime = time.Unix(0, hdr.minTS).UTC()
		info.MaxTime = time.Unix(0, hdr.maxTS).UTC()
		out = append(out, info)
	}
	return out, nil
}
