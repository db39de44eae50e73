package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/analyzer"
	"repro/internal/archive"
	"repro/internal/ingest"
	"repro/internal/mask"
	"repro/internal/parser"
	"repro/internal/patterns"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/token"
	"repro/internal/vfs"
)

// stage accumulates the time and call count of one layer call.
type stage struct{ ns, ops int64 }

func (s stage) perOp() float64 { return ratio(float64(s.ns), float64(s.ops)) }

// shadowCosts is what the shadow pipeline measured since the last reset.
type shadowCosts struct {
	decode, parseSyslog, mask, scan, match, add, patterns stage
	apply, storeFlush, arcAppend, arcFlush                stage
	maskChanged, batches, messages                        int64
}

// shadow is the deliberately naive re-composition of the paper's
// workflow from the layers' public functions: single-threaded, no
// verbatim caches, every call timed. Fed the live run's records and
// batch boundaries it gives each layer's cost per operation, and as the
// reference computation its pattern set must equal the live system's.
type shadow struct {
	dir  string
	fs   *countFS
	st   *store.Store
	par  *parser.Parser
	msk  *mask.Masker     // nil unless the workload masks
	arc  *archive.Archive // nil unless the workload archives
	sc   token.Scanner
	acfg analyzer.Config
	tr   *tracer
	cost shadowCosts
	// clockNs is the measured cost of one clock read, taken off every
	// timed call so cheap calls are not charged for the stopwatch.
	clockNs int64
	base    time.Time
	nbatch  int
}

func newShadow(dir string, masked, archived bool, tr *tracer) (*shadow, error) {
	s := &shadow{dir: dir, fs: &countFS{}, par: parser.New(), acfg: analyzer.DefaultConfig(), tr: tr, base: time.Now()}
	var err error
	if s.st, err = store.OpenOptions(dir, store.Options{FS: s.fs}); err != nil {
		return nil, err
	}
	if masked {
		s.msk = mask.New(mask.Config{Salt: maskSalt, DisableCache: true})
	}
	if archived {
		if s.arc, err = archive.Open(filepath.Join(dir, "archive"), archive.Options{FS: s.fs}); err != nil {
			return nil, err
		}
	}
	const reads = 200000
	t0 := s.clock()
	for i := 0; i < reads; i++ {
		s.clock()
	}
	s.clockNs = (s.clock() - t0) / reads
	return s, nil
}

func (s *shadow) clock() int64 { return int64(time.Since(s.base)) }

// lap charges the time since *t to st, restarts the lap, and counts n ops.
func (s *shadow) lap(st *stage, t *int64, n int64) {
	now := s.clock()
	if d := now - *t - s.clockNs; d > 0 {
		st.ns += d
	}
	st.ops += n
	*t = now
}

func (s *shadow) resetCosts() {
	s.cost = shadowCosts{}
	s.fs.reset()
}

// reopen closes and reopens the shadow store, returning how long the
// open (snapshot load plus journal replay) took.
func (s *shadow) reopen() (time.Duration, error) {
	if err := s.st.Close(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	st, err := store.OpenOptions(s.dir, store.Options{FS: s.fs})
	if err != nil {
		return 0, err
	}
	s.st = st
	return time.Since(t0), nil
}

// restart times a reopen of the store, then swaps in an empty store in
// dir and an empty parser. The measured costs carry on, and the disk
// traffic of the restart itself is not counted among them.
func (s *shadow) restart(dir string) (reopen time.Duration, err error) {
	counted := *s.fs
	defer func() { *s.fs = counted }()
	if reopen, err = s.reopen(); err != nil {
		return 0, err
	}
	if err := s.st.Close(); err != nil {
		return 0, err
	}
	s.dir, s.par = dir, parser.New()
	s.st, err = store.OpenOptions(dir, store.Options{FS: s.fs})
	return reopen, err
}

func (s *shadow) close() error {
	var err error
	if s.arc != nil {
		err = s.arc.Close()
	}
	if cerr := s.st.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *shadow) patternIDs() []string {
	var ids []string
	for _, p := range s.st.All() {
		ids = append(ids, p.ID)
	}
	sort.Strings(ids)
	return ids
}

// varSpans collects the variable-position token spans of a matched
// message in pattern order, the values the archive stores.
func varSpans(dst [][]byte, p *patterns.Pattern, toks []token.Token) [][]byte {
	for i := range p.Elements {
		e := &p.Elements[i]
		if e.Type == token.TailAny || i >= len(toks) {
			break
		}
		if e.Var {
			dst = append(dst, toks[i].Span)
		}
	}
	return dst
}

// batch runs one batch through mask, scan, match, mine, persist and
// archive, the way Fig 2 of the paper orders them.
func (s *shadow) batch(recs []ingest.Record) error {
	s.nbatch++
	start := s.tr.now()
	before := s.cost
	now := time.Now()
	byService := make(map[string][]string)
	for _, r := range recs {
		byService[r.Service] = append(byService[r.Service], r.Message)
	}
	services := make([]string, 0, len(byService))
	for svc := range byService {
		services = append(services, svc)
	}
	sort.Strings(services)

	type hit struct {
		n       int64
		example string
	}
	var vars [][]byte
	c := &s.cost
	for _, svc := range services {
		a := analyzer.New(svc, s.acfg)
		hits := make(map[string]*hit)
		for _, msg := range byService[svc] {
			t := s.clock()
			if s.msk != nil {
				out, changed := s.msk.Mask(msg)
				if changed {
					msg = out
					c.maskChanged++
				}
				s.lap(&c.mask, &t, 1)
			}
			toks := token.Enrich(s.sc.Scan(msg))
			s.lap(&c.scan, &t, 1)
			p, ok := s.par.Match(svc, toks)
			s.lap(&c.match, &t, 1)
			if !ok {
				a.Add(toks, msg)
				s.lap(&c.add, &t, 1)
				continue
			}
			h := hits[p.ID]
			if h == nil {
				h = &hit{example: msg}
				hits[p.ID] = h
			}
			h.n++
			if s.arc != nil {
				t = s.clock()
				vars = varSpans(vars[:0], p, toks)
				if err := s.arc.Append(svc, p.ID, now, vars, len(msg)); err != nil {
					return err
				}
				s.lap(&c.arcAppend, &t, 1)
			}
		}
		t := s.clock()
		mined := a.Patterns(now)
		s.lap(&c.patterns, &t, 1)
		ops := make([]store.Op, 0, len(mined)+len(hits))
		for _, p := range mined {
			ops = append(ops, store.Op{Kind: store.OpUpsert, Pattern: p})
			s.par.Add(p)
		}
		for id, h := range hits {
			ops = append(ops, store.Op{Kind: store.OpTouch, ID: id, N: h.n, When: now, Example: h.example})
		}
		t = s.clock()
		if _, err := s.st.ApplyBatch(svc, ops); err != nil {
			return err
		}
		s.lap(&c.apply, &t, int64(len(ops)))
	}
	t := s.clock()
	if err := s.st.Flush(); err != nil {
		return err
	}
	s.lap(&c.storeFlush, &t, 1)
	if s.arc != nil {
		if err := s.arc.Flush(); err != nil {
			return err
		}
		s.lap(&c.arcFlush, &t, 1)
	}
	c.batches++
	c.messages += int64(len(recs))

	end := s.tr.now()
	pid := s.tr.add(span{Name: "shadow.batch", Batch: s.nbatch, Start: start, End: end})
	for _, st := range []struct {
		name       string
		now, prior stage
	}{
		{"shadow.mask", c.mask, before.mask}, {"shadow.scan", c.scan, before.scan},
		{"shadow.match", c.match, before.match}, {"shadow.analyzer_add", c.add, before.add},
		{"shadow.analyzer_patterns", c.patterns, before.patterns}, {"shadow.store_apply", c.apply, before.apply},
		{"shadow.store_flush", c.storeFlush, before.storeFlush}, {"shadow.archive_append", c.arcAppend, before.arcAppend},
		{"shadow.archive_flush", c.arcFlush, before.arcFlush},
	} {
		if ops := st.now.ops - st.prior.ops; ops > 0 {
			s.tr.add(span{Parent: pid, Name: st.name, Batch: s.nbatch, Start: start, End: end, Ops: ops, BusyNs: st.now.ns - st.prior.ns})
		}
	}
	return nil
}

// feedJSONL decodes JSON lines from r and runs them through the shadow
// in the given batch sizes.
func (s *shadow) feedJSONL(r *bufio.Scanner, batches []int) error {
	for _, n := range batches {
		recs := make([]ingest.Record, 0, n)
		t := s.clock()
		for len(recs) < n && r.Scan() {
			rec, err := ingest.Decode(r.Bytes(), "unknown")
			if err != nil {
				return err
			}
			recs = append(recs, rec)
		}
		s.lap(&s.cost.decode, &t, int64(len(recs)))
		if len(recs) < n {
			return fmt.Errorf("shadow: input ended %d records into a batch of %d", len(recs), n)
		}
		if err := s.batch(recs); err != nil {
			return err
		}
	}
	return r.Err()
}

// feedFile is feedJSONL over a JSON-lines file.
func (s *shadow) feedFile(path string, batches []int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.feedJSONL(lineScanner(f), batches)
}

// feedFrames parses octet-counted syslog frames and runs them through
// the shadow in the given batch sizes.
func (s *shadow) feedFrames(data []byte, batches []int) error {
	for _, n := range batches {
		recs := make([]ingest.Record, 0, n)
		t := s.clock()
		for len(recs) < n {
			sp := bytes.IndexByte(data, ' ')
			if sp < 0 {
				return fmt.Errorf("shadow: frames ended %d records into a batch of %d", len(recs), n)
			}
			size, err := strconv.Atoi(string(data[:sp]))
			if err != nil || sp+1+size > len(data) {
				return fmt.Errorf("shadow: bad frame length %q", data[:sp])
			}
			rec, err := server.ParseSyslog(data[sp+1:sp+1+size], "unknown")
			if err != nil {
				return err
			}
			recs = append(recs, rec)
			data = data[sp+1+size:]
		}
		s.lap(&s.cost.parseSyslog, &t, int64(len(recs)))
		if err := s.batch(recs); err != nil {
			return err
		}
	}
	return nil
}

// countFS is vfs.OS with the writes and syncs of the files it opens
// counted, so the persistence layers' disk traffic is visible per batch.
type countFS struct {
	vfs.OS
	writeBytes, syncs, syncNs int64
}

func (c *countFS) reset() { c.writeBytes, c.syncs, c.syncNs = 0, 0, 0 }

func (c *countFS) Create(name string) (vfs.File, error) {
	f, err := c.OS.Create(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

func (c *countFS) OpenAppend(name string) (vfs.File, error) {
	f, err := c.OS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

// countFile is only used from the single-threaded shadow, so plain
// counters suffice.
type countFile struct {
	vfs.File
	fs *countFS
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.writeBytes += int64(n)
	return n, err
}

func (f *countFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.syncNs += int64(time.Since(t0))
	f.fs.syncs++
	return err
}
