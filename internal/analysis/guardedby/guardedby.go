// Package guardedby machine-checks the repo's lock-annotation comments.
// A struct field carrying a `// guarded by mu` comment may only be
// touched in functions that visibly acquire that mutex first;
// `// guarded by mu (send)` restricts only channel sends (receives and
// len are the lock-free side of the protocol).
//
// An access is covered inside its own function if, earlier in the
// body, base.mu.Lock()/RLock() on the same base, a base.lock()/rlock()
// helper, or a lockAll() sweep appears. A function whose body touches a
// guarded field without acquiring the lock itself is legal only if
// every production call path into it (per the static call graph)
// acquires the named mutex before the call: the *Locked naming
// convention is verified, not trusted. Call sites that reach the
// guarded access lock-free are reported at the frontier — the outermost
// call the graph can see — so an annotation-only lock claim (a *Locked
// helper with a non-locking caller) is flagged at the caller that
// should have locked. The *Locked suffix is trusted only where callers
// are invisible: exported functions, functions whose value escapes
// (callbacks), and functions with no production callers at all.
//
// Unlock is deliberately not tracked: the analyzer over-approximates
// the critical section to the rest of the function, trading false
// positives for zero false "unguarded" noise; release-then-touch bugs
// are the race detector's jurisdiction. Only accesses through a plain
// identifier base (s.field, sh.field) are checked, and caller-side
// lock matching is by mutex name (receivers differ across frames).
// Test files are skipped.
package guardedby

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "guardedby",
	Doc: "fields annotated `// guarded by <mu>` may only be accessed in " +
		"functions that acquire <mu> first (`(send)` mode restricts " +
		"channel sends only); *Locked functions are verified against " +
		"their call paths instead of trusted by name",
	Run: run,
}

var annotRE = regexp.MustCompile(`guarded by ([A-Za-z_]\w*)(?:\s*\((send)\))?`)

type annot struct {
	mu    string
	send  bool
	owner string // enclosing type name, "" for anonymous structs
}

func run(pass *framework.Pass) error {
	st := stateFor(pass, callgraph.For(pass))
	for _, f := range st.findings[pass.Path] {
		pass.Report(f.pos, f.msg)
	}
	return nil
}

type finding struct {
	pos token.Pos
	msg string
}

type reportKey struct {
	pos token.Pos
	mu  string
}

type state struct {
	g *callgraph.Graph
	// findings per unit path: each pass emits only positions in its own
	// unit, so frontier reports land in the caller's package.
	findings map[string][]finding
	lockEvs  map[*callgraph.Node][]lockEv
	reported map[reportKey]bool
}

// lockEv is a caller-side lock acquisition, matched by mutex name; "*"
// grants every mutex (lock()/rlock() helpers, lockAll sweeps).
type lockEv struct {
	pos token.Pos
	mu  string
}

func stateFor(pass *framework.Pass, g *callgraph.Graph) *state {
	return pass.Facts.Memo("guardedby.state", func() any {
		st := &state{
			g:        g,
			findings: make(map[string][]finding),
			lockEvs:  make(map[*callgraph.Node][]lockEv),
			reported: make(map[reportKey]bool),
		}
		st.build(pass.Program)
		return st
	}).(*state)
}

func (st *state) build(program []*framework.ProgramUnit) {
	byUnit := make(map[*framework.ProgramUnit]map[types.Object]annot)
	for _, u := range program {
		if g := collectAnnotations(u.TypesInfo, u.Files); len(g) > 0 {
			byUnit[u] = g
		}
	}
	for _, n := range st.g.Nodes() {
		guarded := byUnit[n.Unit]
		if len(guarded) == 0 || n.TestFile || n.Decl.Body == nil {
			continue
		}
		for _, a := range unguardedAccesses(n.Unit.TypesInfo, n.Decl, guarded) {
			st.handle(n, a)
		}
	}
}

// handle dispatches one intraprocedurally-unguarded access of n.
func (st *state) handle(n *callgraph.Node, a access) {
	switch {
	case st.inheritEligible(n):
		// Callers are fully visible: verify every path locks, reporting
		// the lock-free call sites at the frontier.
		st.frontier(n, a, map[*callgraph.Node]bool{n: true})
	case isLockedName(n.Func.Name()):
		// Exported, referenced, or caller-less *Locked function: the
		// suffix is the documented contract and there is nothing to
		// check it against.
	default:
		st.add(n.Unit.Path, a.pos, accessMessage(a, n.Decl.Name.Name))
	}
}

// inheritEligible reports whether n's lock obligation can be discharged
// by its callers: all of them are visible to the graph.
func (st *state) inheritEligible(n *callgraph.Node) bool {
	if ast.IsExported(n.Func.Name()) || n.Referenced {
		return false
	}
	for _, e := range n.In {
		if !e.Ref && !e.Caller.TestFile {
			return true
		}
	}
	return false
}

// frontier walks n's production call sites; each one must acquire the
// mutex before the call or inherit the obligation from its own callers.
// Lock-free sites at the visibility boundary are reported. Cycles are
// treated as covered.
func (st *state) frontier(n *callgraph.Node, a access, visited map[*callgraph.Node]bool) {
	for _, e := range n.In {
		if e.Ref || e.Caller.TestFile {
			continue
		}
		c := e.Caller
		if st.lockedBefore(c, e.Pos, a.mu) {
			continue
		}
		if st.inheritEligible(c) {
			if !visited[c] {
				visited[c] = true
				st.frontier(c, a, visited)
			}
			continue
		}
		if isLockedName(c.Func.Name()) {
			continue // documented contract with invisible callers
		}
		key := reportKey{e.Pos, a.mu}
		if st.reported[key] {
			continue
		}
		st.reported[key] = true
		st.add(c.Unit.Path, e.Pos, fmt.Sprintf(
			"call to %s reaches %s (annotated `guarded by %s`) without holding %s: every path into a guarded access must acquire the lock first",
			n.Name(), a.fieldDesc(), a.mu, a.mu))
	}
}

func (st *state) add(unitPath string, pos token.Pos, msg string) {
	st.findings[unitPath] = append(st.findings[unitPath], finding{pos, msg})
}

// lockedBefore reports whether caller acquires mu (by name; "*" helpers
// and lockAll grant all) earlier in its body than pos.
func (st *state) lockedBefore(caller *callgraph.Node, pos token.Pos, mu string) bool {
	evs, ok := st.lockEvs[caller]
	if !ok {
		evs = nameLockEvents(caller.Decl)
		st.lockEvs[caller] = evs
	}
	for _, ev := range evs {
		if ev.pos < pos && (ev.mu == mu || ev.mu == "*") {
			return true
		}
	}
	return false
}

// nameLockEvents collects a function's lock acquisitions purely
// syntactically — cross-frame matching is by mutex name, so no type
// information is needed.
func nameLockEvents(fd *ast.FuncDecl) []lockEv {
	if fd == nil || fd.Body == nil {
		return nil
	}
	var evs []lockEv
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "lockAll", "lock", "rlock":
			evs = append(evs, lockEv{call.Pos(), "*"})
		case "Lock", "RLock", "TryLock", "TryRLock":
			if muSel, ok := sel.X.(*ast.SelectorExpr); ok {
				evs = append(evs, lockEv{call.Pos(), muSel.Sel.Name})
			}
		}
		return true
	})
	return evs
}

func isLockedName(name string) bool { return strings.HasSuffix(name, "Locked") }

// ---- shared intraprocedural machinery ----

// collectAnnotations maps annotated field objects to their guard.
func collectAnnotations(info *types.Info, files []*ast.File) map[types.Object]annot {
	guarded := make(map[types.Object]annot)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			owner := ""
			var st *ast.StructType
			switch n := n.(type) {
			case *ast.TypeSpec:
				s, ok := n.Type.(*ast.StructType)
				if !ok {
					return true
				}
				owner, st = n.Name.Name, s
			case *ast.StructType:
				st = n // anonymous struct
			default:
				return true
			}
			for _, field := range st.Fields.List {
				text := ""
				if field.Doc != nil {
					text += field.Doc.Text()
				}
				if field.Comment != nil {
					text += field.Comment.Text()
				}
				m := annotRE.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				a := annot{mu: m[1], send: m[2] == "send", owner: owner}
				for _, name := range field.Names {
					if obj := info.Defs[name]; obj != nil {
						guarded[obj] = a
					}
				}
			}
			if owner != "" {
				return false // fields already handled; skip re-visiting the struct
			}
			return true
		})
	}
	return guarded
}

type eventKind int

const (
	lockEvent eventKind = iota // base.mu.Lock / base.lock helper
	lockAllEvent
	accessEvent
)

type event struct {
	pos   token.Pos
	kind  eventKind
	base  types.Object // lock/access: the receiver variable
	mu    string       // lockEvent: mutex name, or "*" for lock helpers
	field types.Object // accessEvent
	node  ast.Node
}

// access is one guarded-field access no lock event covers inside its
// own function.
type access struct {
	pos      token.Pos
	mu       string
	send     bool
	baseName string // receiver variable at the access ("c")
	name     string // field name ("m")
	owner    string // declaring type name ("Cache")
}

func (a access) fieldDesc() string {
	if a.owner != "" {
		return a.owner + "." + a.name
	}
	return a.baseName + "." + a.name
}

// unguardedAccesses walks one function body (closures included) and
// returns the guarded-field accesses with no covering lock acquisition
// earlier in the body, using the v1 position-ordered, base-matched
// model.
func unguardedAccesses(info *types.Info, fd *ast.FuncDecl, guarded map[types.Object]annot) []access {
	var events []event

	// sendChans records expressions appearing as the channel of a send;
	// send-mode annotations restrict only those.
	sendChans := make(map[ast.Expr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if s, ok := n.(*ast.SendStmt); ok {
			sendChans[s.Chan] = true
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if ev, ok := lockCall(info, n); ok {
				events = append(events, ev)
			}
		case *ast.SelectorExpr:
			base, ok := n.X.(*ast.Ident)
			if !ok {
				return true
			}
			sel, ok := info.Selections[n]
			if !ok || sel.Kind() != types.FieldVal {
				return true
			}
			fieldObj := sel.Obj()
			a, ok := guarded[fieldObj]
			if !ok {
				return true
			}
			if a.send && !sendChans[n] {
				return true
			}
			if baseObj := objOf(info, base); baseObj != nil {
				events = append(events, event{pos: n.Pos(), kind: accessEvent, base: baseObj, mu: a.mu, field: fieldObj, node: n})
			}
		}
		return true
	})

	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	type heldKey struct {
		base types.Object
		mu   string
	}
	held := make(map[heldKey]bool)
	allLocked := false
	var out []access
	for _, ev := range events {
		switch ev.kind {
		case lockEvent:
			held[heldKey{ev.base, ev.mu}] = true
		case lockAllEvent:
			allLocked = true
		case accessEvent:
			if allLocked || held[heldKey{ev.base, ev.mu}] || held[heldKey{ev.base, "*"}] {
				continue
			}
			sel := ev.node.(*ast.SelectorExpr)
			a := guarded[ev.field]
			out = append(out, access{
				pos:      ev.pos,
				mu:       ev.mu,
				send:     a.send,
				baseName: exprString(sel.X),
				name:     sel.Sel.Name,
				owner:    a.owner,
			})
		}
	}
	return out
}

func accessMessage(a access, funcName string) string {
	what := "accessed"
	if a.send {
		what = "sent to"
	}
	return fmt.Sprintf("%s.%s %s in %s without holding %s (annotated `guarded by %s`)",
		a.baseName, a.name, what, funcName, a.mu, a.mu)
}

// lockCall classifies a call expression as a lock acquisition:
// base.mu.Lock(), base.mu.RLock(), the base.lock()/base.rlock()
// helpers, or a lockAll() sweep.
func lockCall(info *types.Info, call *ast.CallExpr) (event, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return event{}, false
	}
	name := sel.Sel.Name
	if name == "lockAll" {
		return event{pos: call.Pos(), kind: lockAllEvent}, true
	}
	switch name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		// base.mu.Lock(): the receiver expression is itself a field
		// selector on an identifier.
		muSel, ok := sel.X.(*ast.SelectorExpr)
		if !ok {
			return event{}, false
		}
		base, ok := muSel.X.(*ast.Ident)
		if !ok {
			return event{}, false
		}
		if baseObj := objOf(info, base); baseObj != nil {
			return event{pos: call.Pos(), kind: lockEvent, base: baseObj, mu: muSel.Sel.Name}, true
		}
	case "lock", "rlock":
		// base.lock() helper: grants whichever mutex the type wraps.
		base, ok := sel.X.(*ast.Ident)
		if !ok {
			return event{}, false
		}
		if baseObj := objOf(info, base); baseObj != nil {
			return event{pos: call.Pos(), kind: lockEvent, base: baseObj, mu: "*"}, true
		}
	}
	return event{}, false
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

func exprString(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
