// Package parser implements the Sequence parsing phase: matching scanned
// messages against the set of known patterns.
//
// Patterns are indexed by (service, token count), mirroring the two
// partitioning stages of AnalyzeByService, so a lookup only ever compares
// a message against the patterns that could possibly match it. Among
// several candidates the parser picks the most specific one — the pattern
// with the most literal positions — which resolves the overlapping-pattern
// cases the paper mentions during patterndb review.
//
// The index is sharded by service (route.Shard, the same routing as the
// store and the archive), so a harvest registering service A's patterns
// never blocks a Match on service B: each shard has its own RWMutex,
// and both the lookup and the mutation paths touch exactly one shard.
package parser

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/patterns"
	"repro/internal/route"
	"repro/internal/token"
)

// pshard is one service-hash partition of the pattern index.
type pshard struct {
	mu    sync.RWMutex
	index map[string]map[int]*bucket   // guarded by mu
	byID  map[string]*patterns.Pattern // guarded by mu
	// exact caches verbatim message -> matched pattern per service, so a
	// message seen before skips scanning and matching entirely (identical
	// bytes always tokenize identically, so replaying the previous answer
	// is sound). Any pattern mutation on the shard clears the cache.
	exact  map[string]map[string]*patterns.Pattern // guarded by mu
	exactN int                                     // guarded by mu; entries across services
}

// maxExactPerShard bounds the verbatim-message cache. On overflow the
// whole shard cache is dropped rather than evicted entry-by-entry: the
// cache refills from live traffic in one batch, and clear-on-overflow
// keeps the hot path free of LRU bookkeeping.
const maxExactPerShard = 1 << 15

func newPshard() *pshard {
	return &pshard{
		index: make(map[string]map[int]*bucket),
		byID:  make(map[string]*patterns.Pattern),
	}
}

// Parser matches token sequences against known patterns. It is safe for
// concurrent use: lookups take one shard's read lock, mutations one
// shard's write lock; no lock spans shards.
type Parser struct {
	shards []*pshard
	count  atomic.Int64 // registered patterns across shards
	m      *obs.Metrics
}

// New returns an empty parser with the default shard count (GOMAXPROCS).
func New() *Parser { return NewSharded(0) }

// NewSharded returns an empty parser with n service-hash shards (n <= 0
// selects GOMAXPROCS). Use the same shard count as the store so the two
// layers contend identically.
func NewSharded(n int) *Parser {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Parser{shards: make([]*pshard, n), m: obs.New()}
	for i := range p.shards {
		p.shards[i] = newPshard()
	}
	return p
}

// shardFor routes a service to its shard.
func (p *Parser) shardFor(service string) *pshard {
	return p.shards[route.Shard(service, len(p.shards))]
}

// SetMetrics redirects the parser's instrumentation to m (the engine
// shares one Metrics across all pipeline stages). Call before concurrent
// use.
func (p *Parser) SetMetrics(m *obs.Metrics) {
	p.m = m
	m.ParserPatterns.Set(p.count.Load())
}

// Add registers a pattern. A pattern with an already-known ID replaces the
// previous one (patterns are value-identified by their SHA-1, so this is
// an idempotent upsert). Only the pattern's service shard is locked.
func (p *Parser) Add(pat *patterns.Pattern) {
	if pat.ID == "" {
		pat.ComputeID()
	}
	sh := p.shardFor(pat.Service)
	sh.mu.Lock()
	added := sh.addLocked(pat)
	sh.mu.Unlock()
	if added {
		p.count.Add(1)
	}
	p.m.ParserPatterns.Set(p.count.Load())
}

// addLocked registers pat in the shard and reports whether it was new
// (as opposed to replacing a same-ID pattern).
func (sh *pshard) addLocked(pat *patterns.Pattern) bool {
	fresh := true
	if old, ok := sh.byID[pat.ID]; ok {
		sh.removeLocked(old)
		fresh = false
	}
	sh.clearExactLocked()
	sh.byID[pat.ID] = pat
	svc := sh.index[pat.Service]
	if svc == nil {
		svc = make(map[int]*bucket)
		sh.index[pat.Service] = svc
	}
	n := len(pat.Elements)
	b := svc[n]
	if b == nil {
		b = newBucket()
		svc[n] = b
	}
	b.add(pat)
	return fresh
}

// Replace swaps the full pattern set: the new per-shard indexes are
// built off-line and all shards published together under their write
// locks, so concurrent Matches see either the complete old set or the
// complete new set, never a half-merged one, within a service and across
// services. This is what makes MergeFrom safe against concurrent parsing.
func (p *Parser) Replace(pats []*patterns.Pattern) {
	fresh := make([]*pshard, len(p.shards))
	for i := range fresh {
		fresh[i] = newPshard()
	}
	for _, pat := range pats {
		if pat.ID == "" {
			pat.ComputeID()
		}
		idx := route.Shard(pat.Service, len(fresh))
		// fresh shards are still thread-private, but the uncontended
		// lock keeps the guardedby discipline machine-checkable.
		fresh[idx].mu.Lock()
		fresh[idx].addLocked(pat)
		fresh[idx].mu.Unlock()
	}
	// Every shard is published under all the write locks at once: a
	// reader that finds one service's new set finds every other
	// service's too, whichever shards they hash to.
	p.lockAll()
	var total int64
	for i, sh := range p.shards {
		sh.index = fresh[i].index
		sh.byID = fresh[i].byID
		sh.exact = nil
		sh.exactN = 0
		total += int64(len(sh.byID))
	}
	p.unlockAll()
	p.count.Store(total)
	p.m.ParserPatterns.Set(total)
}

// lockAll acquires every shard's write lock in ascending order; nothing
// else holds two shard locks, so the order cannot deadlock. unlockAll
// releases them.
func (p *Parser) lockAll() {
	for _, sh := range p.shards {
		sh.mu.Lock()
	}
}

func (p *Parser) unlockAll() {
	for _, sh := range p.shards {
		sh.mu.Unlock()
	}
}

// Remove deletes a pattern by ID and reports whether it was present.
func (p *Parser) Remove(id string) bool {
	for _, sh := range p.shards {
		sh.mu.Lock()
		pat, ok := sh.byID[id]
		if ok {
			sh.removeLocked(pat)
		}
		sh.mu.Unlock()
		if ok {
			p.count.Add(-1)
			p.m.ParserPatterns.Set(p.count.Load())
			return true
		}
	}
	return false
}

func (sh *pshard) clearExactLocked() {
	if sh.exactN > 0 {
		sh.exact = nil
		sh.exactN = 0
	}
}

func (sh *pshard) removeLocked(pat *patterns.Pattern) {
	sh.clearExactLocked()
	delete(sh.byID, pat.ID)
	svc := sh.index[pat.Service]
	if svc == nil {
		return
	}
	n := len(pat.Elements)
	if b := svc[n]; b != nil {
		b.remove(pat.ID)
		if b.empty() {
			delete(svc, n)
		}
	}
	if len(svc) == 0 {
		delete(sh.index, pat.Service)
	}
}

// Get returns the pattern with the given ID.
func (p *Parser) Get(id string) (*patterns.Pattern, bool) {
	for _, sh := range p.shards {
		sh.mu.RLock()
		pat, ok := sh.byID[id]
		sh.mu.RUnlock()
		if ok {
			return pat, true
		}
	}
	return nil, false
}

// Len returns the number of registered patterns.
func (p *Parser) Len() int { return int(p.count.Load()) }

// Services returns the number of distinct services with patterns.
func (p *Parser) Services() int {
	n := 0
	for _, sh := range p.shards {
		sh.mu.RLock()
		n += len(sh.index)
		sh.mu.RUnlock()
	}
	return n
}

// Match finds the best pattern for an enriched token sequence of the given
// service. Among all matching candidates it returns the one with the most
// literal positions (the most specific); ok is false when no pattern
// matches. Only the service's shard is read-locked.
func (p *Parser) Match(service string, tokens []token.Token) (best *patterns.Pattern, ok bool) {
	sh := p.shardFor(service)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	p.m.ParserMatchAttempts.Inc()
	svc := sh.index[service]
	if svc == nil || len(tokens) == 0 {
		p.m.ParserMatchMisses.Inc()
		return nil, false
	}
	b := svc[len(tokens)]
	if b == nil {
		p.m.ParserMatchMisses.Inc()
		return nil, false
	}
	bestScore := -1
	exact, varFirst := b.candidates(tokens[0])
	for _, list := range [2][]*patterns.Pattern{exact, varFirst} {
		for _, cand := range list {
			if score, m := cand.Match(tokens); m && score > bestScore {
				best, bestScore = cand, score
			}
		}
	}
	// Multi-line patterns are indexed under first-line length + 1 (the
	// TailAny element); a message truncated by the scanner carries the
	// same marker token, so lengths align and no second lookup is needed.
	if bestScore < 0 {
		p.m.ParserMatchMisses.Inc()
	}
	return best, bestScore >= 0
}

// MatchExact looks the verbatim message up in the exact-message cache and
// returns the pattern a byte-identical message matched earlier. A hit
// skips scanning, enrichment and candidate matching entirely — the fast
// path for the highly repetitive traffic the paper targets. The cache is
// cleared on any pattern mutation of the service's shard, so a hit is
// always consistent with the current pattern set.
func (p *Parser) MatchExact(service, msg string) (*patterns.Pattern, bool) {
	sh := p.shardFor(service)
	sh.mu.RLock()
	svc := sh.exact[service]
	pat := svc[msg]
	sh.mu.RUnlock()
	if pat == nil {
		return nil, false
	}
	p.m.ParserMatchAttempts.Inc()
	p.m.ParserExactCacheHits.Inc()
	return pat, true
}

// CacheExact records that the verbatim message matched pat, so the next
// byte-identical message is served by MatchExact. The entry is dropped
// silently if pat is no longer registered (a mutation raced the caller's
// Match); on overflow the shard's whole cache is cleared
// (maxExactPerShard).
func (p *Parser) CacheExact(service, msg string, pat *patterns.Pattern) {
	sh := p.shardFor(service)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.byID[pat.ID] != pat {
		return // pattern replaced or removed since the caller matched it
	}
	if sh.exactN >= maxExactPerShard {
		sh.exact = nil
		sh.exactN = 0
	}
	if sh.exact == nil {
		sh.exact = make(map[string]map[string]*patterns.Pattern)
	}
	svc := sh.exact[service]
	if svc == nil {
		svc = make(map[string]*patterns.Pattern)
		sh.exact[service] = svc
	}
	// One hash of the message, not a lookup and then an insert: on fresh
	// traffic nearly every call adds an entry.
	before := len(svc)
	svc[msg] = pat
	sh.exactN += len(svc) - before
}

// All returns a snapshot of every registered pattern.
func (p *Parser) All() []*patterns.Pattern {
	out := make([]*patterns.Pattern, 0, p.count.Load())
	for _, sh := range p.shards {
		sh.mu.RLock()
		for _, pat := range sh.byID {
			out = append(out, pat)
		}
		sh.mu.RUnlock()
	}
	return out
}
