// Package maskbound enforces the PII boundary on the ingest paths: in
// internal/core and internal/server, any function that writes to a
// durable sink — the store's ApplyBatch or the archive's Append — must
// run the masking stage first. The masking contract (DESIGN.md §13) is
// that raw message text never reaches the journal, snapshots, or
// archive blocks; that only holds if every ingest path masks before it
// stores.
//
// A masking call is a call to a *mask.Masker method or to a mask*
// helper (maskMsg, maskMessages, maskRecord, ...). A sink is covered
// only if a masking call *dominates* it — appears earlier and not
// inside a conditional branch the sink is outside of — or the call
// chain from the ingest entry point transitively masks first. Sinks
// wrapped in helpers (in any package) are traced through the static
// call graph, and findings are reported at the entry function whose
// chain fails to mask, so helper-wrapped sinks, mask-after-store
// orderings and conditionally-executed masks are all caught.
//
// Dominance is approximated on the AST: if/else branches, switch and
// select clauses, and defer/go statements are conditional scopes; loop
// bodies and function literals are transparent (masking each element
// inside the loop that feeds the sink is the real tree's idiom, and
// closures share the enclosing function's lexical contract).
package maskbound

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "maskbound",
	Doc: "ingest functions in internal/core and internal/server must " +
		"run the masking stage (a mask.Masker method or a mask* helper) " +
		"before writing to the store (ApplyBatch) or " +
		"the archive (Append); the masking call must dominate the sink, " +
		"across helper calls (static call graph)",
	Run: run,
}

// sinkMethods maps the durable-write receivers to their sink methods:
// package path suffix -> type name -> method set.
var sinkMethods = map[string]map[string]map[string]bool{
	"internal/store": {
		"Store": {"ApplyBatch": true},
	},
	"internal/archive": {
		"Archive": {"Append": true},
	},
}

// SinkReachFact marks a function through which raw text can reach a
// durable sink with no masking call dominating the write on the way:
// calling it without masking first is as unsafe as calling the sink.
type SinkReachFact struct {
	// Sink names the representative reachable sink ("store.ApplyBatch").
	Sink string
}

func (*SinkReachFact) AFact() {}

// MasksOnEntryFact marks a function that runs the masking stage
// unconditionally (a dominating masking call before any sink-reaching
// action), so a call to it counts as a masking event for the caller.
type MasksOnEntryFact struct{}

func (*MasksOnEntryFact) AFact() {}

func targetPath(path string) bool {
	return framework.PathHasSuffix(path, "internal/core") ||
		framework.PathHasSuffix(path, "internal/server")
}

func run(pass *framework.Pass) error {
	if !targetPath(pass.Path) {
		return nil
	}
	g := callgraph.For(pass)
	st := stateFor(pass, g)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue // tests may drive the store directly to stage fixtures
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			n := g.NodeByDecl(pass.TypesInfo, fd)
			if n == nil {
				continue
			}
			if !st.isEntry(n) {
				// Every production caller either masks before this
				// call chain or is itself the reporting frontier.
				continue
			}
			for _, c := range st.info(n).uncovered {
				pass.Report(c.pos, c.message)
			}
		}
	}
	return nil
}

// state is the whole-program analysis, memoized in the run's fact
// store so all target units share one computation.
type state struct {
	g     *callgraph.Graph
	facts *framework.Facts
	infos map[*callgraph.Node]*funcInfo
	// reach/masks memos: 0 unset, 1 computing, 2 true, 3 false.
	reachMemo map[*callgraph.Node]int8
	reachSink map[*callgraph.Node]string
	masksMemo map[*callgraph.Node]int8
}

func stateFor(pass *framework.Pass, g *callgraph.Graph) *state {
	return pass.Facts.Memo("maskbound.state", func() any {
		return &state{
			g:         g,
			facts:     pass.Facts,
			infos:     make(map[*callgraph.Node]*funcInfo),
			reachMemo: make(map[*callgraph.Node]int8),
			reachSink: make(map[*callgraph.Node]string),
			masksMemo: make(map[*callgraph.Node]int8),
		}
	}).(*state)
}

// event is a masking action or a sink-reaching action inside one
// function body, with its conditional scopes for the dominance test.
type event struct {
	pos    token.Pos
	scopes []ast.Node
}

// candidate is one sink-reaching call site that needs masking cover.
type candidate struct {
	event
	message string
}

type funcInfo struct {
	masks []event
	// uncovered holds the sink-reaching sites no masking event
	// dominates.
	uncovered []candidate
	// callSites maps each outgoing call expression to its scoped
	// event, for the caller-coverage test.
	callSites map[*ast.CallExpr]event
}

// info computes (memoized) the per-function events and uncovered
// candidates.
func (st *state) info(n *callgraph.Node) *funcInfo {
	if fi, ok := st.infos[n]; ok {
		return fi
	}
	fi := &funcInfo{callSites: make(map[*ast.CallExpr]event)}
	st.infos[n] = fi // pre-install: cycles see partial (empty) info
	if n.Decl.Body == nil {
		return fi
	}
	info := n.Unit.TypesInfo

	var sinks []candidate
	walkScopes(n.Decl.Body, nil, func(node ast.Node, scopes []ast.Node) {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return
		}
		ev := event{pos: call.Pos(), scopes: append([]ast.Node(nil), scopes...)}
		fi.callSites[call] = ev
		if isMaskCall(info, call) {
			fi.masks = append(fi.masks, ev)
			return
		}
		if name := sinkName(info, call); name != "" {
			sinks = append(sinks, candidate{event: ev,
				message: name + " without a prior masking call dominating it: ingest code must run the masking stage (mask.Masker or a mask* helper) on every path before durable writes"})
			return
		}
		callee := st.g.Node(callgraph.StaticCallee(info, call))
		if callee == nil || callee == n {
			return
		}
		if st.masksOnEntry(callee) {
			fi.masks = append(fi.masks, ev)
			return
		}
		if ok, sink := st.sinkReach(callee); ok {
			sinks = append(sinks, candidate{event: ev,
				message: "call to " + callee.Name() + " reaches " + sink + " without a prior masking call in this function: the helper writes durable state, so the masking stage must dominate this call"})
		}
	})
	for _, s := range sinks {
		if !dominated(s.event, fi.masks) {
			fi.uncovered = append(fi.uncovered, s)
		}
	}
	return fi
}

// dominated reports whether some masking event covers ev: it appears
// earlier and every conditional scope it sits in also encloses ev.
func dominated(ev event, masks []event) bool {
	for _, m := range masks {
		if m.pos >= ev.pos {
			continue
		}
		if scopesSubset(m.scopes, ev.scopes) {
			return true
		}
	}
	return false
}

func scopesSubset(sub, super []ast.Node) bool {
outer:
	for _, s := range sub {
		for _, t := range super {
			if s == t {
				continue outer
			}
		}
		return false
	}
	return true
}

// sinkReach reports whether calling n without masking first can land
// raw text in a durable sink, with a representative sink name. Cycles
// resolve optimistically (no reach) to avoid false positives.
func (st *state) sinkReach(n *callgraph.Node) (bool, string) {
	switch st.reachMemo[n] {
	case 1: // cycle
		return false, ""
	case 2:
		return true, st.reachSink[n]
	case 3:
		return false, ""
	}
	var fact SinkReachFact
	if st.facts.ImportObjectFact(n.Func, &fact) {
		st.reachMemo[n] = 2
		st.reachSink[n] = fact.Sink
		return true, fact.Sink
	}
	st.reachMemo[n] = 1
	reaches, sink := false, ""
	// A mask*-named helper IS the masking stage; whatever it does
	// internally is its own (already masked) business.
	if !hasMaskPrefix(n.Func.Name()) {
		fi := st.info(n)
		if len(fi.uncovered) > 0 {
			reaches = true
			sink = sinkOf(fi.uncovered[0].message)
		}
	}
	if reaches {
		st.reachMemo[n] = 2
		st.reachSink[n] = sink
		st.facts.ExportObjectFact(n.Func, &SinkReachFact{Sink: sink})
	} else {
		st.reachMemo[n] = 3
	}
	return reaches, sink
}

// sinkOf recovers the leading sink name from a candidate message.
func sinkOf(msg string) string {
	if i := strings.IndexByte(msg, ' '); i > 0 {
		if strings.HasPrefix(msg, "call to ") {
			rest := msg[len("call to "):]
			if j := strings.Index(rest, "reaches "); j >= 0 {
				rest = rest[j+len("reaches "):]
				if k := strings.IndexByte(rest, ' '); k > 0 {
					return rest[:k]
				}
			}
		}
		return msg[:i]
	}
	return msg
}

// masksOnEntry reports whether n unconditionally runs the masking
// stage before any sink-reaching action, so callers may count a call
// to n as masking. Cycles resolve conservatively (no credit).
func (st *state) masksOnEntry(n *callgraph.Node) bool {
	if hasMaskPrefix(n.Func.Name()) {
		return true
	}
	switch st.masksMemo[n] {
	case 1:
		return false
	case 2:
		return true
	case 3:
		return false
	}
	var fact MasksOnEntryFact
	if st.facts.ImportObjectFact(n.Func, &fact) {
		st.masksMemo[n] = 2
		return true
	}
	st.masksMemo[n] = 1
	ok := false
	fi := st.info(n)
	if len(fi.uncovered) == 0 {
		for _, m := range fi.masks {
			if len(m.scopes) == 0 {
				ok = true
				break
			}
		}
	}
	if ok {
		st.masksMemo[n] = 2
		st.facts.ExportObjectFact(n.Func, &MasksOnEntryFact{})
	} else {
		st.masksMemo[n] = 3
	}
	return ok
}

// isEntry reports whether n is a reporting frontier: a function whose
// callers the graph cannot vouch for. Exported functions, referenced
// functions (value taken — callbacks, handlers) and functions with no
// production call sites are entries; everything else bubbles the
// responsibility to its callers, which either mask before the call or
// are frontiers themselves.
func (st *state) isEntry(n *callgraph.Node) bool {
	if ast.IsExported(n.Func.Name()) || n.Referenced {
		return true
	}
	callers := 0
	for _, e := range n.In {
		if e.Ref {
			continue
		}
		if e.Caller.TestFile {
			continue // test callers are exempt, as test files are
		}
		callers++
	}
	return callers == 0
}

// walkScopes visits every node of body in source order, tracking the
// conditional scopes (if/else branches, switch/select clauses,
// defer/go statements) enclosing each node. Loop bodies and function
// literals are deliberately transparent.
func walkScopes(body ast.Node, scopes []ast.Node, visit func(ast.Node, []ast.Node)) {
	switch n := body.(type) {
	case nil:
		return
	case *ast.IfStmt:
		visit(n, scopes)
		walkScopes(n.Init, scopes, visit)
		walkScopes(n.Cond, scopes, visit)
		walkScopes(n.Body, append(scopes, n.Body), visit)
		if n.Else != nil {
			walkScopes(n.Else, append(scopes, n.Else), visit)
		}
		return
	case *ast.CaseClause:
		visit(n, scopes)
		scopes = append(scopes, n)
		for _, e := range n.List {
			walkScopes(e, scopes, visit)
		}
		for _, s := range n.Body {
			walkScopes(s, scopes, visit)
		}
		return
	case *ast.CommClause:
		visit(n, scopes)
		scopes = append(scopes, n)
		walkScopes(n.Comm, scopes, visit)
		for _, s := range n.Body {
			walkScopes(s, scopes, visit)
		}
		return
	case *ast.DeferStmt:
		visit(n, scopes)
		walkScopes(n.Call, append(scopes, n), visit)
		return
	case *ast.GoStmt:
		visit(n, scopes)
		walkScopes(n.Call, append(scopes, n), visit)
		return
	}
	visit(body, scopes)
	for _, child := range children(body) {
		walkScopes(child, scopes, visit)
	}
}

// children returns the direct child nodes of n in source order.
func children(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}

// isMaskCall reports whether call invokes the masking stage: any
// method on *mask.Masker, or any function or method whose name starts
// with "mask"/"Mask" (the ingest helpers maskMsg, maskMessages,
// maskRecord wrap the nil-masker check and count as the stage).
func isMaskCall(info *types.Info, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return hasMaskPrefix(fun.Name)
	case *ast.SelectorExpr:
		if hasMaskPrefix(fun.Sel.Name) {
			return true
		}
		if s, ok := info.Selections[fun]; ok && s.Kind() == types.MethodVal {
			return namedIs(s.Recv(), "internal/mask", "Masker")
		}
	}
	return false
}

func hasMaskPrefix(name string) bool {
	return strings.HasPrefix(name, "mask") || strings.HasPrefix(name, "Mask")
}

// sinkName reports the display name of a durable-write call ("" if
// call is not one): a sinkMethods method on the matching receiver type.
func sinkName(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return ""
	}
	for suffix, typs := range sinkMethods {
		for typ, methods := range typs {
			if methods[sel.Sel.Name] && namedIs(s.Recv(), suffix, typ) {
				short := suffix[strings.LastIndexByte(suffix, '/')+1:]
				return short + "." + sel.Sel.Name
			}
		}
	}
	return ""
}

// namedIs reports whether t (pointers unwrapped) is the named type
// `name` declared in a package whose import path ends in suffix. The
// suffix match lets analysistest fixtures declare their own
// internal/store, internal/archive, and internal/mask.
func namedIs(t types.Type, suffix, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil &&
		framework.PathHasSuffix(obj.Pkg().Path(), suffix)
}
