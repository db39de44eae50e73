// Package analyzer implements the Sequence analysis phase: it builds a
// trie from tokenized messages and merges trie levels into patterns.
//
// The analyzer realises the second partitioning stage of the paper's
// AnalyzeByService workflow: within a service, only token sequences of the
// same length are compared in the same analysis trie. (The first stage,
// partitioning by service, is the responsibility of the core engine that
// owns one analyzer state per batch.)
//
// Inside one trie, tokens already classified as variables by the scanner
// (Integer, Float, IPv4, Time, ...) are inserted as type-keyed nodes, so
// two messages differing only in such values share a path immediately.
// Literal tokens are inserted by value; a bottom-up merge pass then
// collapses sibling literal nodes whose subtrees are structurally
// identical into "string" variable nodes — the paper's "comparison of all
// of the tokens positioned at the same level that share the same parent
// and child nodes".
package analyzer

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/patterns"
	"repro/internal/token"
)

// Config tunes the analysis.
type Config struct {
	// MinGroupMessages is the minimum number of messages a merge group
	// must cover before sibling literals collapse into a variable, and
	// before a constant typed value is folded back into a literal. With
	// the default of 3, events seen only once or twice produce
	// word-for-word patterns — the exact "one or two examples" limitation
	// the paper reports in §IV.
	MinGroupMessages int
	// MinDistinctValues is the minimum number of distinct sibling literals
	// required to create a variable. The default of 2 means even
	// semi-constant fields become a single variable-bearing pattern, which
	// is the behaviour the paper's future-work section describes for the
	// current version.
	MinDistinctValues int
	// FoldConstants controls whether a typed token position whose value
	// never varies is emitted as a literal rather than a variable. This is
	// the Sequence-RTG quality-control response to limitation 4 ("Sequence
	// tends to add too many variables into patterns").
	FoldConstants bool
	// VariableMinValues is the high-cardinality fallback: a position
	// holding at least this many distinct literal values, each appearing
	// in only a few messages (VariableMaxMeanCount on average), is a
	// variable even when the message tails differ — the case of several
	// independent identifiers in one message (e.g. the two location codes
	// of a BGL record), where exact tail comparison can never line up.
	VariableMinValues int
	// VariableMaxMeanCount is the mean messages-per-value ceiling for the
	// high-cardinality fallback; genuine identifiers are near 1, while
	// enumerated constants repeat far more often.
	VariableMaxMeanCount float64
	// SplitSemiConstants, when positive, expands a variable position that
	// only ever took between two and this many distinct values into one
	// pattern per value, each with the constant at that position — the
	// semi-constant handling the paper's future-work section proposes
	// (§VI). Zero keeps the published single-pattern behaviour.
	SplitSemiConstants int
}

// DefaultConfig returns the production defaults used at CC-IN2P3.
func DefaultConfig() Config {
	return Config{
		MinGroupMessages: 3, MinDistinctValues: 2, FoldConstants: true,
		VariableMinValues: 8, VariableMaxMeanCount: 3,
	}
}

func (c Config) withDefaults() Config {
	if c.MinGroupMessages <= 0 {
		c.MinGroupMessages = 3
	}
	if c.MinDistinctValues <= 0 {
		c.MinDistinctValues = 2
	}
	if c.VariableMinValues <= 0 {
		c.VariableMinValues = 8
	}
	if c.VariableMaxMeanCount <= 0 {
		c.VariableMaxMeanCount = 3
	}
	return c
}

// Analyzer accumulates tokenized messages for one service and mines
// patterns from them. It is not safe for concurrent use.
type Analyzer struct {
	cfg     Config
	service string
	tries   map[int]*node // token count -> trie root
	nodes   int           // total node count, for memory accounting
	// lit interns literal token values: tokens are byte-slice views into
	// a scan buffer the caller will recycle, so everything the trie
	// retains must be materialised — but the same literal words recur in
	// every message, and interning makes the second and later sightings
	// allocation free (map lookup keyed by string(span) does not copy).
	lit map[string]string
}

// New returns an analyzer for one service's messages.
func New(service string, cfg Config) *Analyzer {
	return &Analyzer{cfg: cfg.withDefaults(), service: service, tries: make(map[int]*node), lit: make(map[string]string)}
}

// Service returns the service this analyzer mines.
func (a *Analyzer) Service() string { return a.service }

// NodeCount returns the number of live trie nodes, the analyzer's dominant
// memory cost. The core engine watches this to size batches (§III, memory
// management).
func (a *Analyzer) NodeCount() int { return a.nodes }

// MessageCount returns the number of messages added.
func (a *Analyzer) MessageCount() int {
	n := 0
	for _, root := range a.tries {
		n += int(root.msgs)
	}
	return n
}

// nodeKey identifies a child slot: a literal value, or a variable type.
// The isSpaceBefore property participates in identity — "uid=0" and
// "uid = 0" are different patterns, which is what makes whitespace-exact
// reconstruction (§III) sound.
type nodeKey struct {
	typ   token.Type
	val   string // empty for variable nodes
	v     bool   // variable node
	space bool   // token had whitespace before it
}

// maxTrackedValues bounds the per-node value census. One distinct value
// enables constant folding; a handful enables semi-constant splitting;
// anything beyond is simply "many" and tracking stops (overflow).
const maxTrackedValues = 8

type node struct {
	key         nodeKey
	children    map[nodeKey]*node
	msgs        int64 // messages passing through this node
	spaceBefore bool
	kvKey       string
	// values counts messages per observed value at a variable node, up
	// to maxTrackedValues distinct values; overflow marks a blown census.
	values   map[string]int64
	overflow bool
	// leaf data
	examples []string
}

// Add inserts one tokenized message. Tokens must already be enriched
// (token.Enrich); raw is the original message text kept as a pattern
// example. The tokens need not outlive the call: everything the trie
// retains is materialised (interned literals, census values, key names),
// so callers may hand over a pooled scanner's buffer directly.
func (a *Analyzer) Add(tokens []token.Token, raw string) {
	if len(tokens) == 0 {
		return
	}
	root := a.tries[len(tokens)]
	if root == nil {
		root = &node{children: make(map[nodeKey]*node)}
		a.tries[len(tokens)] = root
		a.nodes++
	}
	root.msgs++
	cur := root
	for _, t := range tokens {
		k := a.keyFor(t)
		child := cur.children[k]
		if child == nil {
			child = &node{key: k, children: make(map[nodeKey]*node), spaceBefore: t.SpaceBefore, kvKey: t.Key()}
			cur.children[k] = child
			a.nodes++
		}
		child.msgs++
		if k.v {
			child.observeSpan(t.Span, 1)
			if !t.KeyEquals(child.kvKey) {
				child.kvKey = "" // inconsistent keys: drop the name hint
			}
		}
		cur = child
	}
	if len(cur.examples) < patterns.MaxExamples && !contains(cur.examples, raw) {
		cur.examples = append(cur.examples, raw)
	}
}

func (a *Analyzer) keyFor(t token.Token) nodeKey {
	if t.Type.IsVariable() {
		return nodeKey{typ: t.Type, v: true, space: t.SpaceBefore}
	}
	return nodeKey{typ: token.Literal, val: a.intern(t.Span), space: t.SpaceBefore}
}

// intern returns the canonical string for a span, allocating only the
// first time a value is seen by this analyzer.
func (a *Analyzer) intern(b []byte) string {
	if s, ok := a.lit[string(b)]; ok { // keyed lookup does not allocate
		return s
	}
	s := string(b)
	a.lit[s] = s
	return s
}

func (n *node) observe(val string, count int64) {
	if n.overflow {
		return
	}
	if n.values == nil {
		n.values = make(map[string]int64, 2)
	}
	if _, ok := n.values[val]; !ok && len(n.values) >= maxTrackedValues {
		n.overflow = true
		n.values = nil
		return
	}
	n.values[val] += count
}

// observeSpan is observe for a byte-slice value: the value is only
// materialised when it enters the census, so repeat sightings (and
// everything past the overflow point) allocate nothing.
func (n *node) observeSpan(val []byte, count int64) {
	if n.overflow {
		return
	}
	if n.values == nil {
		n.values = make(map[string]int64, 2)
	}
	if _, ok := n.values[string(val)]; ok { // keyed lookup does not allocate
		n.values[string(val)] += count
		return
	}
	if len(n.values) >= maxTrackedValues {
		n.overflow = true
		n.values = nil
		return
	}
	n.values[string(val)] += count
}

// constantValue returns the single observed value when the census proves
// the position constant.
func (n *node) constantValue() (string, bool) {
	if n.overflow || len(n.values) != 1 {
		return "", false
	}
	for v := range n.values {
		return v, true
	}
	return "", false
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Patterns runs the merge pass over every trie and extracts the discovered
// patterns. now stamps FirstSeen/LastMatched. The analyzer can keep
// accepting messages afterwards, but Patterns must not run concurrently
// with Add.
func (a *Analyzer) Patterns(now time.Time) []*patterns.Pattern {
	var out []*patterns.Pattern
	counts := make([]int, 0, len(a.tries))
	for c := range a.tries {
		counts = append(counts, c)
	}
	sort.Ints(counts)
	for _, c := range counts {
		root := a.tries[c]
		// Merging iterates to a fixpoint: collapsing one identifier
		// position lines up the siblings of the next one (messages with
		// several independent identifiers need one pass per position).
		for pass := 0; pass < maxMergePasses; pass++ {
			m := &merger{cfg: a.cfg, sigs: make(map[*node]uint64), shapes: make(map[*node]uint64)}
			m.merge(root)
			if !m.changed {
				break
			}
		}
		ex := &extractor{a: a, now: now}
		ex.walk(root, nil)
		out = append(out, ex.out...)
	}
	return out
}

// maxMergePasses bounds fixpoint iteration; one pass resolves one level
// of cascaded identifiers and real messages rarely have more than a few.
const maxMergePasses = 12

type extractor struct {
	a       *Analyzer
	now     time.Time
	out     []*patterns.Pattern
	curPath []*node // the root-to-leaf path of the pattern being emitted
}

// maxSplitVariants bounds the cross product of semi-constant splitting so
// one leaf can never explode into an unbounded pattern set.
const maxSplitVariants = 32

func (ex *extractor) walk(n *node, path []*node) {
	if len(n.children) == 0 && n.key != (nodeKey{}) {
		ex.emit(path)
		return
	}
	for _, child := range sortedChildren(n) {
		ex.walk(child, append(path, child))
	}
}

func (ex *extractor) element(n *node) patterns.Element {
	k := n.key
	switch {
	case k.typ == token.TailAny:
		return patterns.Element{Type: token.TailAny, SpaceBefore: k.space}
	case k.v:
		// Constant folding: a typed position that only ever held one value
		// across enough messages becomes fixed text.
		if val, ok := n.constantValue(); ok && ex.a.cfg.FoldConstants && n.msgs >= int64(ex.a.cfg.MinGroupMessages) {
			return patterns.Element{Type: token.Literal, Value: val, SpaceBefore: k.space}
		}
		return patterns.Element{Type: k.typ, Var: true, SpaceBefore: k.space, Key: n.kvKey}
	default:
		return patterns.Element{Type: token.Literal, Value: k.val, SpaceBefore: k.space}
	}
}

func (ex *extractor) emit(path []*node) {
	ex.curPath = path
	leaf := path[len(path)-1]
	elems := make([]patterns.Element, len(path))
	for i, n := range path {
		elems[i] = ex.element(n)
	}

	// Semi-constant splitting (§VI future work): positions whose full
	// value census is small expand into one pattern per value.
	splits := ex.splitPositions(path, elems)
	if len(splits) == 0 {
		ex.buildPattern(elems, leaf.msgs, leaf.examples)
		return
	}
	ex.expand(elems, splits, 0, leaf.msgs, leaf.examples)
}

// splitPositions selects the semi-constant variable positions to expand,
// greedily keeping the variant cross product within maxSplitVariants.
func (ex *extractor) splitPositions(path []*node, elems []patterns.Element) []int {
	k := ex.a.cfg.SplitSemiConstants
	if k <= 0 {
		return nil
	}
	var out []int
	product := 1
	for i, n := range path {
		if !elems[i].Var || n.overflow {
			continue
		}
		v := len(n.values)
		if v < 2 || v > k {
			continue
		}
		if product*v > maxSplitVariants {
			continue
		}
		product *= v
		out = append(out, i)
	}
	return out
}

// expand recursively substitutes each tracked value at each split
// position, attributing counts proportionally to the value census.
func (ex *extractor) expand(elems []patterns.Element, splits []int, depth int, count int64, examples []string) {
	if depth == len(splits) {
		ex.buildPattern(elems, count, examples)
		return
	}
	pos := splits[depth]
	n := ex.pathNode(pos)
	total := int64(0)
	for _, c := range n.values {
		total += c
	}
	for _, val := range sortedValues(n.values) {
		variant := make([]patterns.Element, len(elems))
		copy(variant, elems)
		variant[pos] = patterns.Element{Type: token.Literal, Value: val, SpaceBefore: elems[pos].SpaceBefore}
		share := count
		if total > 0 {
			share = count * n.values[val] / total
			if share == 0 {
				share = 1
			}
		}
		ex.expand(variant, splits, depth+1, share, examples)
	}
}

// pathNode gives expand access to the census of the node being split;
// the extractor records the current path during emit.
func (ex *extractor) pathNode(pos int) *node { return ex.curPath[pos] }

func (ex *extractor) buildPattern(elems []patterns.Element, count int64, examples []string) {
	out := make([]patterns.Element, len(elems))
	copy(out, elems)
	patterns.NameVariables(out)
	p := &patterns.Pattern{
		Service:     ex.a.service,
		Elements:    out,
		Count:       count,
		FirstSeen:   ex.now,
		LastMatched: ex.now,
	}
	for _, e := range out {
		if e.Type == token.TailAny {
			p.Multiline = true
		}
	}
	s := token.NewScanner(token.Config{})
	for _, x := range examples {
		if _, ok := p.Match(token.Enrich(s.Scan(x))); ok {
			p.AddExample(x)
		}
	}
	s.Release()
	p.ComputeID()
	ex.out = append(ex.out, p)
}

func sortedValues(values map[string]int64) []string {
	out := make([]string, 0, len(values))
	for v := range values {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func sortedChildren(n *node) []*node {
	out := make([]*node, 0, len(n.children))
	for _, c := range n.children {
		out = append(out, c)
	}
	slices.SortFunc(out, compareChildren)
	return out
}

// compareChildren orders trie children literals first, then by token
// type, value and preceding space. It captures nothing, so sorting
// allocates nothing.
func compareChildren(x, y *node) int {
	a, b := x.key, y.key
	switch {
	case a.v != b.v:
		if !a.v {
			return -1
		}
		return 1
	case a.typ != b.typ:
		return cmp.Compare(a.typ, b.typ)
	case a.val != b.val:
		return strings.Compare(a.val, b.val)
	case a.space != b.space:
		if !a.space {
			return -1
		}
		return 1
	}
	return 0
}
