// Package framework is a minimal, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis driver surface: an Analyzer is a
// named Run function over a Pass, a Pass is one type-checked package
// unit plus a Report sink. The repo is stdlib-only by policy, so the
// seqlint analyzers (internal/analysis/...) are written against this
// package instead of x/tools; the API mirrors go/analysis closely
// enough that porting them onto the real multichecker is a rename.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //seqlint:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of the invariant the analyzer
	// enforces, shown by cmd/seqlint.
	Doc string
	// Run reports diagnostics for one package unit via pass.Report.
	// The returned error aborts the whole seqlint run (loader or
	// internal failures — not findings; findings are diagnostics).
	Run func(pass *Pass) error
}

// Pass is one package unit (its syntax plus type information) handed to
// an Analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files is the unit's parsed syntax, comments included.
	Files []*ast.File
	// Path is the unit's import path. External test packages (package
	// foo_test) form their own unit whose Path carries a "_test" suffix.
	Path string
	// Pkg and TypesInfo hold the unit's type information. They are
	// always non-nil, but a unit that failed to type-check completely
	// (TypeErrors non-empty) may have gaps; analyzers that depend on
	// full type information should skip objects they cannot resolve.
	Pkg       *types.Package
	TypesInfo *types.Info
	// TypeErrors collects the unit's type-check errors. The main
	// packages always type-check (tier-1 gates on go build); external
	// test units may carry benign errors (references to in-package test
	// helpers that live outside their unit).
	TypeErrors []error
	// Report delivers one diagnostic.
	Report func(pos token.Pos, message string)
	// Program is every unit loaded in this run, the pass's own
	// included, in deterministic (path-sorted) order. Interprocedural
	// analyzers walk it to see across package boundaries.
	Program []*ProgramUnit
	// Facts is the run-wide fact store shared by every pass of one
	// driver run.
	Facts *Facts
}

// ProgramUnit is the read-only view of one loaded unit that
// interprocedural analyzers see through Pass.Program.
type ProgramUnit struct {
	Path      string
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Test marks an external test unit (package foo_test).
	Test bool
}

// Fact is a datum an analyzer attaches to a types.Object in one unit
// and retrieves while analyzing another — the go/analysis facts
// mechanism, minus the serialization (all units of a seqlint run live
// in one process). Implementations are pointer types with an AFact
// marker method.
type Fact interface{ AFact() }

// Facts stores object facts and memoized whole-program artifacts for
// one driver run. It is shared across units and analyzers; the driver
// is single-threaded, so no locking.
type Facts struct {
	objects map[factKey]Fact
	memos   map[string]any
}

type factKey struct {
	obj types.Object
	typ reflect.Type
}

// NewFacts returns an empty fact store for one run.
func NewFacts() *Facts {
	return &Facts{objects: make(map[factKey]Fact), memos: make(map[string]any)}
}

// ExportObjectFact associates fact (a pointer) with obj, replacing any
// existing fact of the same type.
func (f *Facts) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil {
		panic("framework: ExportObjectFact on nil object")
	}
	f.objects[factKey{obj, reflect.TypeOf(fact)}] = fact
}

// ImportObjectFact copies the fact of fact's type previously exported
// for obj into fact and reports whether one existed.
func (f *Facts) ImportObjectFact(obj types.Object, fact Fact) bool {
	stored, ok := f.objects[factKey{obj, reflect.TypeOf(fact)}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// Memo returns the artifact cached under key, building it on first
// request. The call graph is memoized here so every interprocedural
// analyzer of a run shares one graph.
func (f *Facts) Memo(key string, build func() any) any {
	if v, ok := f.memos[key]; ok {
		return v
	}
	v := build()
	f.memos[key] = v
	return v
}

// ExportObjectFact exports fact for obj into the run's fact store.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.Facts == nil {
		panic("framework: ExportObjectFact without a fact store (nil Program run)")
	}
	p.Facts.ExportObjectFact(obj, fact)
}

// ImportObjectFact retrieves a fact exported for obj, if any.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.Facts == nil {
		return false
	}
	return p.Facts.ImportObjectFact(obj, fact)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// InTestFile reports whether pos lies in a _test.go file. Analyzers
// that check non-test code only (vfsonly, guardedby, persisterr) use it
// to skip test files that legitimately reach around the invariant.
func (p *Pass) InTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// PathHasSuffix reports whether the slash-separated import path ends in
// the given element suffix: PathHasSuffix("repro/internal/store",
// "internal/store") is true, but "x/notinternal/store" does not match.
// Analyzers use it to target packages by role so that analysistest
// fixtures (whose paths lack the module prefix) match the same rule as
// the real tree.
func PathHasSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	return strings.HasSuffix(path, "/"+suffix)
}

// Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// SuppressedBy is the reason text of the //seqlint:ignore directive
	// that muted this finding; empty for surviving diagnostics.
	SuppressedBy string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}
