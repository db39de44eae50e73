// Package callgraph builds a cross-package static call graph over all
// units of one seqlint run — the interprocedural layer under the v2
// analyzers (maskbound, guardedby, noalloc).
//
// The graph is deliberately static and conservative:
//
//   - nodes are the functions and methods declared in the loaded
//     program (one per FuncDecl);
//   - call edges are resolved static calls (plain function calls,
//     cross-package pkg.Fn calls) and method calls whose static
//     receiver type is concrete — interface dispatch produces no edge;
//   - reference edges mark a function's value being taken without a
//     call (passed as a callback, stored in a field, registered as a
//     handler). A referenced function can be invoked from contexts the
//     graph cannot see, so analyzers treat it like an entry point.
//
// Function literals are inlined into their enclosing declaration: a
// call made inside a closure is an edge of the declaring function, at
// the call's own position. That matches how the intraprocedural
// analyzers already treat closures (they share the enclosing lexical
// scope).
//
// Cross-package identity: a function's *types.Func differs between the
// unit that type-checks its syntax and the units that import it through
// export data, so nodes are keyed by a stable (package path, receiver,
// name) string and lookups accept either object. External test units
// ("pkg_test") resolve the package under test through export data; the
// edges from their test functions into the package are still resolved
// by the same key.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis/framework"
)

// Node is one declared function or method of the program.
type Node struct {
	// Func is the syntax-side object (from the declaring unit's Defs).
	Func *types.Func
	Decl *ast.FuncDecl
	// Unit is the declaring unit.
	Unit *framework.ProgramUnit
	// TestFile marks a function declared in a _test.go file (of any
	// unit) or anywhere in an external test unit.
	TestFile bool
	// Out holds this function's resolved outgoing edges (calls and
	// references), in position order.
	Out []*Edge
	// In holds the edges whose callee is this function.
	In []*Edge
	// Referenced reports whether any In edge is a reference rather
	// than a call: the function's value escapes into contexts the
	// graph cannot follow.
	Referenced bool
}

// Name returns a short human-readable name ("Store.ApplyBatch" or
// "analyzeService") for diagnostics.
func (n *Node) Name() string {
	if recv := n.Decl.Recv; recv != nil && len(recv.List) > 0 {
		if tn := recvTypeName(recv.List[0].Type); tn != "" {
			return tn + "." + n.Func.Name()
		}
	}
	return n.Func.Name()
}

// Edge is one resolved call site or function reference.
type Edge struct {
	Caller *Node
	Callee *Node
	// Site is the call expression; nil for a bare reference.
	Site *ast.CallExpr
	Pos  token.Pos
	// Ref marks a non-call reference to Callee.
	Ref bool
}

// Graph is the program's static call graph.
type Graph struct {
	byKey map[string]*Node
	order []*Node
}

// For returns the run's call graph, building it on first request and
// memoizing it in the pass's fact store so every interprocedural
// analyzer shares one graph.
func For(pass *framework.Pass) *Graph {
	return pass.Facts.Memo("callgraph", func() any {
		return Build(pass.Fset, pass.Program)
	}).(*Graph)
}

// Build constructs the call graph over the given units.
func Build(fset *token.FileSet, program []*framework.ProgramUnit) *Graph {
	g := &Graph{byKey: make(map[string]*Node)}

	// Pass 1: one node per FuncDecl.
	for _, u := range program {
		for _, f := range u.Files {
			testFile := u.Test
			if tf := fset.File(f.Pos()); tf != nil && strings.HasSuffix(tf.Name(), "_test.go") {
				testFile = true
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				obj, _ := u.TypesInfo.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := &Node{Func: obj, Decl: fd, Unit: u, TestFile: testFile}
				g.byKey[Key(obj)] = n
				g.order = append(g.order, n)
			}
		}
	}

	// Pass 2: edges.
	for _, n := range g.order {
		if n.Decl.Body == nil {
			continue
		}
		addEdges(g, n)
	}
	for _, n := range g.order {
		sort.SliceStable(n.Out, func(i, j int) bool { return n.Out[i].Pos < n.Out[j].Pos })
	}
	for _, n := range g.order {
		sort.SliceStable(n.In, func(i, j int) bool { return n.In[i].Pos < n.In[j].Pos })
	}
	return g
}

// Nodes returns every node in deterministic (declaration) order.
func (g *Graph) Nodes() []*Node { return g.order }

// Node resolves a function object (from any unit, syntax- or
// export-data-side) to its node, or nil if the function is not declared
// in the program.
func (g *Graph) Node(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.byKey[Key(fn)]
}

// NodeByDecl resolves a declaration in the program to its node.
func (g *Graph) NodeByDecl(info *types.Info, fd *ast.FuncDecl) *Node {
	if fd == nil || fd.Name == nil {
		return nil
	}
	fn, _ := info.Defs[fd.Name].(*types.Func)
	return g.Node(fn)
}

// Key returns the stable cross-unit identity of a function: package
// path, receiver type name (pointers unwrapped) and method name.
func Key(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		switch t := t.(type) {
		case *types.Named:
			return pkg + "." + t.Obj().Name() + "." + fn.Name()
		case *types.Interface:
			return pkg + ".(interface)." + fn.Name()
		}
	}
	return pkg + "." + fn.Name()
}

// StaticCallee resolves a call expression to the *types.Func it
// statically invokes, or nil for dynamic calls (interface methods,
// function-typed variables), conversions, and builtins. Exported so
// analyzers resolve callees outside the program (stdlib) with the same
// rules the graph uses.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			// Interface dispatch is not static.
			if types.IsInterface(recvType(sel.Recv())) {
				return nil
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Qualified identifier: pkg.Fn.
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func recvType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// addEdges walks one declaration's body (function literals included)
// and records call and reference edges.
func addEdges(g *Graph, n *Node) {
	info := n.Unit.TypesInfo

	// callFuns marks the identifiers that are the operator of a call
	// expression, so the reference pass can skip them.
	callFuns := make(map[ast.Node]bool)
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun := ast.Unparen(call.Fun)
		callFuns[fun] = true
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			callFuns[sel.Sel] = true
		}
		if callee := g.Node(StaticCallee(info, call)); callee != nil {
			e := &Edge{Caller: n, Callee: callee, Site: call, Pos: call.Pos()}
			n.Out = append(n.Out, e)
			callee.In = append(callee.In, e)
		}
		return true
	})

	// Reference pass: any remaining use of a program function's value.
	// The Uses map records the function object on the identifier for
	// plain references, qualified pkg.Fn references, method values and
	// method expressions alike, so inspecting identifiers covers them
	// all without double-counting their enclosing selectors.
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		id, ok := node.(*ast.Ident)
		if !ok || callFuns[id] {
			return true
		}
		fn, _ := info.Uses[id].(*types.Func)
		if fn == nil {
			return true
		}
		if callee := g.Node(fn); callee != nil {
			e := &Edge{Caller: n, Callee: callee, Pos: node.Pos(), Ref: true}
			n.Out = append(n.Out, e)
			callee.In = append(callee.In, e)
			callee.Referenced = true
		}
		return true
	})
}

func recvTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(e.X)
	case *ast.IndexListExpr:
		return recvTypeName(e.X)
	}
	return ""
}
