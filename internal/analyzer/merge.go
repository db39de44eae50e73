package analyzer

import (
	"cmp"
	"slices"

	"repro/internal/token"
)

// The merge pass.
//
// After insertion the trie is exact: every distinct literal value is its
// own node. The merge pass walks the trie bottom-up and, at every node,
// groups the literal-valued children by the structural signature of the
// subtree *below* them. A group whose members agree structurally all the
// way down — the paper's "tokens positioned at the same level that share
// the same parent and child nodes" — is collapsed into a single "string"
// variable node when it has at least MinDistinctValues members covering at
// least MinGroupMessages messages.
//
// One merger serves a whole Patterns call. Its memo map is cleared
// between fixpoint passes and its buffers are reused from node to node,
// so once they have grown a pass allocates nothing per node; only
// collapsing allocates (the variable node, its census, moved children).

type merger struct {
	cfg     Config
	shapes  map[*node]uint64 // value-insensitive subtree signatures, per pass
	changed bool

	keys    []uint64     // childKeySet: hashed child keys of one node
	entries []shapeEntry // shape: (key, subtree) hashes, used as a stack
	members []member     // literal children of one node with their signature
	groups  []group      // runs of members that qualify for collapse
}

type shapeEntry struct{ key, sub uint64 }

// member is a literal child and the signature it is grouped by.
type member struct {
	sig uint64
	n   *node
}

// group is the run members[lo:hi] of equal signature; first is its first
// member, by which groups are collapsed in order.
type group struct {
	lo, hi int
	first  *node
}

func newMerger(cfg Config) *merger {
	return &merger{cfg: cfg, shapes: make(map[*node]uint64)}
}

// reset starts a fixpoint pass: the trie changed, so every memoized
// signature is stale.
func (m *merger) reset() {
	clear(m.shapes)
	m.changed = false
}

func (m *merger) mergeAt(n *node, depth int) {
	for _, c := range n.children {
		m.mergeAt(c, depth+1)
	}

	// Primary criterion, straight from the paper: tokens at the same
	// level merge when they "share the same parent and child nodes" —
	// sibling literals under this parent whose immediate child key sets
	// are identical. One level of lookahead keeps genuinely different
	// events apart (their continuations differ immediately) while letting
	// variable values with a common continuation collapse; the fixpoint
	// iteration in Patterns propagates the effect level by level.
	//
	// The first message token is exempt: leading words discriminate
	// events ("Starting ..." vs "Stopping ...") and only the
	// high-cardinality fallback below may turn them into a variable.
	if depth > 0 && literalChildren(n) >= m.cfg.MinDistinctValues {
		m.members = m.members[:0]
		for _, c := range n.children {
			if !c.key.v {
				m.members = append(m.members, member{sig: m.childKeySet(c), n: c})
			}
		}
		m.collapseGroups(n, false)
	}

	// High-cardinality fallback: when a position holds many distinct,
	// rarely-repeating values of the same shape (independent identifiers
	// such as BGL location codes), the exact-tail criterion can never
	// line up; the cardinality itself marks the position as variable.
	//
	// Every literal child's shape is taken, even where too few children
	// remain to form a group. That is no rule of the algorithm: it keeps a
	// known-stale memo only to stay output-equivalent with the map-based
	// code this replaced. shape memoizes a subtree the first time a pass
	// asks for it; collapse and combine later in the same pass reshape
	// memoized subtrees, and ancestors then group by the old signature.
	// Hashing fresh at the grouping sites reproduced testdata/mined.golden
	// too (the FOUND note on shape in CHANGES.md), so a later change may
	// do that and drop this unconditional pass.
	m.members = m.members[:0]
	for _, c := range n.children {
		if !c.key.v {
			m.members = append(m.members, member{sig: m.shape(c), n: c})
		}
	}
	if len(m.members) >= m.cfg.VariableMinValues {
		m.collapseGroups(n, true)
	}
}

func literalChildren(n *node) int {
	k := 0
	for _, c := range n.children {
		if !c.key.v {
			k++
		}
	}
	return k
}

// collapseGroups groups m.members by signature and collapses every group
// that qualifies under the primary criterion or, with fallback, under the
// high-cardinality one. Sorting the members by signature, then in child
// order, forms the groups as runs with their members in a defined order;
// the groups collapse in the order of their first members. Both orders
// decide which examples a merged node keeps, so neither may depend on
// insertion or map order.
func (m *merger) collapseGroups(n *node, fallback bool) {
	ms := m.members
	slices.SortFunc(ms, compareMembers)
	m.groups = m.groups[:0]
	for lo := 0; lo < len(ms); {
		hi := lo + 1
		for hi < len(ms) && ms[hi].sig == ms[lo].sig {
			hi++
		}
		if m.qualifies(ms[lo:hi], fallback) {
			m.groups = append(m.groups, group{lo: lo, hi: hi, first: ms[lo].n})
		}
		lo = hi
	}
	if len(m.groups) == 0 {
		return
	}
	slices.SortFunc(m.groups, compareGroups)
	for _, g := range m.groups {
		m.collapse(n, ms[g.lo:g.hi])
	}
	n.dropGone()
}

func (m *merger) qualifies(g []member, fallback bool) bool {
	var total int64
	for _, mb := range g {
		total += mb.n.msgs
	}
	if fallback {
		return len(g) >= m.cfg.VariableMinValues &&
			float64(total)/float64(len(g)) <= m.cfg.VariableMaxMeanCount
	}
	return len(g) >= m.cfg.MinDistinctValues && total >= int64(m.cfg.MinGroupMessages)
}

// collapse merges a group of sibling literal nodes into one string
// variable node. The members are only marked gone here; the caller
// compacts n's children once after all its groups have collapsed, so a
// position of thousands of values is removed in one linear pass.
func (m *merger) collapse(n *node, g []member) {
	first := g[0].n
	vk := nodeKey{typ: token.Literal, v: true, space: first.key.space}
	target := n.child(vk)
	if target == nil {
		target = &node{key: vk, spaceBefore: first.spaceBefore, kvKey: first.kvKey}
		n.addChild(target)
	}
	for _, mb := range g {
		c := mb.n
		if c.kvKey != target.kvKey {
			target.kvKey = ""
		}
		c.gone = true
		target.observe(c.key.val, c.msgs) // census of the merged values
		combine(target, c)
	}
	m.changed = true
}

// dropGone removes the children collapse marked gone, in one pass.
func (n *node) dropGone() {
	kept := n.children[:0]
	for _, c := range n.children {
		if !c.gone {
			kept = append(kept, c)
		} else if n.index != nil {
			delete(n.index, c.key)
		}
	}
	n.children = kept
}

// combine unions src into dst, aligning children by key recursively.
func combine(dst, src *node) {
	dst.msgs += src.msgs
	if src.overflow {
		dst.overflow = true
		dst.values = nil
	}
	if src.key.v { // variable nodes carry their own value census
		for v, c := range src.values {
			dst.observe(v, c)
		}
	}
	for _, x := range src.examples {
		if len(dst.examples) >= cap3 {
			break
		}
		if !contains(dst.examples, x) {
			dst.examples = append(dst.examples, x)
		}
	}
	for _, sc := range src.children {
		if dc := dst.child(sc.key); dc != nil {
			combine(dc, sc)
		} else {
			dst.addChild(sc)
		}
	}
}

const cap3 = 3

// childKeySet hashes the immediate child keys of n (one level only, the
// paper's "same child nodes" criterion) as a multiset: the key hashes
// are sorted before they are folded together.
func (m *merger) childKeySet(n *node) uint64 {
	keys := m.keys[:0]
	for _, c := range n.children {
		keys = append(keys, keyHash(c.key, true))
	}
	slices.Sort(keys)
	h := uint64(fnvOffset)
	for _, k := range keys {
		h = mixWord(h, k)
	}
	m.keys = keys
	return h
}

// shape hashes the token-class skeleton of n's subtree — keys with their
// literal values erased — memoized per pass. m.entries is a stack: each
// call pushes its children's entries above those of its callers and pops
// them before returning.
func (m *merger) shape(n *node) uint64 {
	if s, ok := m.shapes[n]; ok {
		return s
	}
	base := len(m.entries)
	for _, c := range n.children {
		sub := m.shape(c)
		m.entries = append(m.entries, shapeEntry{key: keyHash(c.key, false), sub: sub})
	}
	es := m.entries[base:]
	slices.SortFunc(es, compareEntries)
	h := uint64(fnvOffset)
	for _, e := range es {
		h = mixWord(mixWord(h, e.key), e.sub)
	}
	m.entries = m.entries[:base]
	m.shapes[n] = h
	return h
}

// FNV-1a, folded inline so hashing a key needs neither a hash.Hash nor a
// string rendering of the key.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// keyHash hashes the identity of a child key: variability, spacing, and
// the type of a variable or, unless shape erases it, the value of a
// literal.
//
//seqrtg:noalloc
func keyHash(k nodeKey, withValue bool) uint64 {
	h := uint64(fnvOffset)
	if k.v {
		h = (h ^ 'V') * fnvPrime
	} else {
		h = (h ^ 'L') * fnvPrime
	}
	if k.space {
		h = (h ^ '_') * fnvPrime
	} else {
		h = (h ^ '-') * fnvPrime
	}
	if k.v {
		return (h ^ uint64(k.typ)) * fnvPrime
	}
	if withValue {
		for i := 0; i < len(k.val); i++ {
			h = (h ^ uint64(k.val[i])) * fnvPrime
		}
	}
	return h
}

// mixWord folds the eight bytes of w into h.
//
//seqrtg:noalloc
func mixWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (w & 0xff)) * fnvPrime
		w >>= 8
	}
	return h
}

func compareMembers(x, y member) int {
	if c := cmp.Compare(x.sig, y.sig); c != 0 {
		return c
	}
	return compareChildren(x.n, y.n)
}

func compareGroups(x, y group) int { return compareChildren(x.first, y.first) }

func compareEntries(x, y shapeEntry) int {
	if c := cmp.Compare(x.key, y.key); c != 0 {
		return c
	}
	return cmp.Compare(x.sub, y.sub)
}
