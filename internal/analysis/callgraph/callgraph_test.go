package callgraph_test

import (
	"go/token"
	"go/types"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/framework"
)

// buildFixture loads the two-package callgraph fixture and builds its
// graph. The app unit resolves cg/util through the fixture importer,
// so util's functions appear under two distinct *types.Func objects —
// the cross-unit identity case callgraph.Key must collapse.
func buildFixture(t *testing.T) (*token.FileSet, []*framework.ProgramUnit, *callgraph.Graph) {
	t.Helper()
	fset, units := analysistest.LoadFixture(t, "cg/util", "cg/app")
	program := make([]*framework.ProgramUnit, len(units))
	for i, u := range units {
		program[i] = &framework.ProgramUnit{
			Path:      u.Path,
			Files:     u.Files,
			Pkg:       u.Pkg,
			TypesInfo: u.Info,
			Test:      u.Test,
		}
	}
	return fset, program, callgraph.Build(fset, program)
}

// node finds a graph node by its diagnostic name, failing the test if
// it is absent.
func node(t *testing.T, g *callgraph.Graph, name string) *callgraph.Node {
	t.Helper()
	for _, n := range g.Nodes() {
		if n.Name() == name {
			return n
		}
	}
	t.Fatalf("no node named %q in graph", name)
	return nil
}

// calls reports whether caller has a call (non-Ref) edge to callee.
func calls(caller, callee *callgraph.Node) bool {
	for _, e := range caller.Out {
		if e.Callee == callee && !e.Ref {
			return true
		}
	}
	return false
}

func TestCrossPackageCallEdge(t *testing.T) {
	_, _, g := buildFixture(t)
	helper := node(t, g, "Helper")
	direct := node(t, g, "Direct")
	if !calls(direct, helper) {
		t.Fatalf("Direct -> util.Helper call edge missing; out edges: %d", len(direct.Out))
	}
	// The callee's In mirrors the caller's Out.
	found := false
	for _, e := range helper.In {
		if e.Caller == direct && !e.Ref {
			found = true
		}
	}
	if !found {
		t.Fatalf("util.Helper has no In edge from Direct")
	}
}

func TestConcreteMethodEdge(t *testing.T) {
	_, _, g := buildFixture(t)
	if !calls(node(t, g, "Method"), node(t, g, "Buf.Flush")) {
		t.Fatalf("Method -> Buf.Flush edge missing")
	}
}

func TestInterfaceDispatchHasNoEdge(t *testing.T) {
	_, _, g := buildFixture(t)
	dynamic := node(t, g, "Dynamic")
	for _, e := range dynamic.Out {
		t.Fatalf("Dynamic should have no static edges, got one to %s", e.Callee.Name())
	}
}

func TestClosureCallsInlineIntoDeclaration(t *testing.T) {
	_, _, g := buildFixture(t)
	closure := node(t, g, "Closure")
	if !calls(closure, node(t, g, "Helper")) {
		t.Fatalf("call inside function literal not attributed to Closure")
	}
	// f() itself is a dynamic call: exactly one outgoing edge.
	if len(closure.Out) != 1 {
		t.Fatalf("Closure has %d out edges, want 1 (the inlined Helper call)", len(closure.Out))
	}
}

func TestReferenceEdgeMarksReferenced(t *testing.T) {
	_, _, g := buildFixture(t)
	helper := node(t, g, "Helper")
	if !helper.Referenced {
		t.Fatalf("util.Helper passed as a value but not marked Referenced")
	}
	found := false
	for _, e := range node(t, g, "TakesRef").Out {
		if e.Callee == helper && e.Ref {
			found = true
		}
	}
	if !found {
		t.Fatalf("TakesRef has no reference edge to util.Helper")
	}
	// leaf is only ever called, never referenced.
	if node(t, g, "leaf").Referenced {
		t.Fatalf("leaf marked Referenced without a value reference")
	}
}

func TestSamePackageEdge(t *testing.T) {
	_, _, g := buildFixture(t)
	if !calls(node(t, g, "caller"), node(t, g, "leaf")) {
		t.Fatalf("caller -> leaf same-package edge missing")
	}
}

func TestTestFileFlag(t *testing.T) {
	_, _, g := buildFixture(t)
	if !node(t, g, "helperInTest").TestFile {
		t.Fatalf("function declared in _test.go not flagged TestFile")
	}
	if node(t, g, "Direct").TestFile {
		t.Fatalf("Direct flagged TestFile but lives in app.go")
	}
}

// TestKeyCollapsesImportIdentity checks that the *types.Func the app
// unit sees for util.Helper (via its importer) resolves to the same
// node as the declaring unit's object, even though the two objects are
// distinct.
func TestKeyCollapsesImportIdentity(t *testing.T) {
	_, program, g := buildFixture(t)
	var app *framework.ProgramUnit
	for _, u := range program {
		if u.Path == "cg/app" {
			app = u
		}
	}
	if app == nil {
		t.Fatalf("cg/app unit missing")
	}
	helper := node(t, g, "Helper")
	resolved := 0
	for id, obj := range app.TypesInfo.Uses {
		if id.Name != "Helper" {
			continue
		}
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if n := g.Node(fn); n != nil {
			if n != helper {
				t.Fatalf("app-side Helper resolved to a different node")
			}
			if fn == helper.Func {
				t.Fatalf("fixture did not split identities: app reuses the declaring object, test proves nothing")
			}
			resolved++
		}
	}
	if resolved == 0 {
		t.Fatalf("no app-side use of util.Helper resolved through the graph")
	}
}

// TestForMemoizesPerRun checks For builds once per fact store.
func TestForMemoizesPerRun(t *testing.T) {
	fset, units := analysistest.LoadFixture(t, "cg/util")
	program := []*framework.ProgramUnit{{
		Path: units[0].Path, Files: units[0].Files, Pkg: units[0].Pkg, TypesInfo: units[0].Info,
	}}
	facts := framework.NewFacts()
	mk := func() *framework.Pass {
		return &framework.Pass{Fset: fset, Files: units[0].Files, Path: units[0].Path,
			Pkg: units[0].Pkg, TypesInfo: units[0].Info, Program: program, Facts: facts}
	}
	g1 := callgraph.For(mk())
	g2 := callgraph.For(mk())
	if g1 == nil || g1 != g2 {
		t.Fatalf("For did not memoize: %p vs %p", g1, g2)
	}
}
