// Package noalloc verifies the repo's zero-allocation annotations. A
// function carrying a `//seqrtg:noalloc` comment is a steady-state hot
// path (the scanner's scan loop, the mask fast path, the codec encode
// helpers, the archive append path) whose benchmarks pin 0 allocs/op;
// the analyzer keeps the property from regressing silently between
// benchmark runs by rejecting heap-allocating constructs statically:
//
//   - make and new, slice and map literals, &composite literals;
//   - append to anything but an existing slice (the reuse idiom
//     `dst = append(dst, ...)` with an identifier, field, or re-slice
//     as the first argument is the hot paths' amortized-growth
//     contract and stays legal);
//   - closures that capture variables, and go statements;
//   - non-constant string concatenation, string<->[]byte/[]rune
//     conversions — except the compiler-optimized forms `m[string(b)]`
//     and `string(b) == s`, which the intern map and comparators rely
//     on;
//   - boxing: passing a non-pointer-shaped concrete value where an
//     interface is expected;
//   - any fmt call, and any call to an in-program function that itself
//     allocates (summaries are computed bottom-up over the static call
//     graph; calls that cannot be resolved statically are flagged as
//     unprovable). Standard-library callees other than fmt are trusted
//     to match their documented allocation behavior.
//
// Struct and array value literals, taking the address of existing
// memory (&s.field, &xs[i]), map reads and writes (amortized over a
// bounded key set), defer, and panic/recover error paths are allowed.
package noalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "noalloc",
	Doc: "functions annotated //seqrtg:noalloc must contain no " +
		"heap-allocating constructs (make/new, fresh-slice append, " +
		"capturing closures, interface boxing, string concat and " +
		"conversions, fmt, or calls to allocating functions); the " +
		"reuse-idiom append and m[string(b)] / string(b)==s forms stay " +
		"legal",
	Run: run,
}

const directive = "//seqrtg:noalloc"

func run(pass *framework.Pass) error {
	c := checkerFor(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !Annotated(fd) {
				continue
			}
			for _, v := range c.violations(pass.TypesInfo, fd) {
				pass.Reportf(v.pos, "%s in %s function %s", v.what, directive, fd.Name.Name)
			}
		}
	}
	return nil
}

// Annotated reports whether fd carries the //seqrtg:noalloc directive
// in its doc comment.
func Annotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, directive) {
			return true
		}
	}
	return false
}

type violation struct {
	pos  token.Pos
	what string
}

// checker resolves callees to their declarations through the call graph
// and memoizes bottom-up allocation summaries.
type checker struct {
	lookup func(fn *types.Func) (*ast.FuncDecl, *types.Info, bool)
	// memo: summary per callgraph.Key. "" = allocation-free; non-empty
	// = the first allocating construct found.
	memo map[string]string
	// computing guards cycles: recursion resolves optimistically to
	// allocation-free, matching the other bottom-up summaries.
	computing map[string]bool
}

func checkerFor(pass *framework.Pass) *checker {
	g := callgraph.For(pass)
	return pass.Facts.Memo("noalloc.checker", func() any {
		return &checker{
			memo:      make(map[string]string),
			computing: make(map[string]bool),
			lookup: func(fn *types.Func) (*ast.FuncDecl, *types.Info, bool) {
				if n := g.Node(fn); n != nil {
					return n.Decl, n.Unit.TypesInfo, true
				}
				return nil, nil, false
			},
		}
	}).(*checker)
}

// summary returns "" when fn is allocation-free, or a description of
// its first allocating construct. Functions outside the program are
// trusted except fmt.
func (c *checker) summary(fn *types.Func) string {
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		return "calls fmt." + fn.Name() + " (fmt always allocates)"
	}
	key := callgraph.Key(fn)
	if s, ok := c.memo[key]; ok {
		return s
	}
	if c.computing[key] {
		return "" // cycle: optimistic, like the other bottom-up summaries
	}
	fd, info, ok := c.lookup(fn)
	if !ok || fd == nil || fd.Body == nil {
		return "" // outside the program: trusted
	}
	c.computing[key] = true
	s := ""
	if vs := c.violations(info, fd); len(vs) > 0 {
		s = "calls " + fn.Name() + ", which allocates: " + vs[0].what
	}
	delete(c.computing, key)
	c.memo[key] = s
	return s
}

// violations collects every allocating construct in fd's body.
func (c *checker) violations(info *types.Info, fd *ast.FuncDecl) []violation {
	var out []violation
	add := func(pos token.Pos, what string) { out = append(out, violation{pos, what}) }

	parents := parentMap(fd.Body)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			c.checkCall(info, n, parents, add)
		case *ast.CompositeLit:
			switch t := info.TypeOf(n); underlying(t).(type) {
			case *types.Slice:
				add(n.Pos(), "slice literal allocates its backing array")
			case *types.Map:
				add(n.Pos(), "map literal allocates")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					add(n.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.TypeOf(n)) && info.Types[n].Value == nil {
				// Report only the outermost concat of a chain.
				if p, ok := parents[n].(*ast.BinaryExpr); !ok || p.Op != token.ADD {
					add(n.Pos(), "non-constant string concatenation allocates")
				}
			}
		case *ast.FuncLit:
			if captured := capturedVar(info, n); captured != "" {
				add(n.Pos(), "closure captures "+captured+" and allocates")
			}
		case *ast.GoStmt:
			add(n.Pos(), "go statement allocates a goroutine")
		}
		return true
	})
	return out
}

// checkCall classifies one call expression: conversion, builtin,
// fmt/dynamic/allocating callee, and boxing of interface arguments.
func (c *checker) checkCall(info *types.Info, call *ast.CallExpr, parents map[ast.Node]ast.Node, add func(token.Pos, string)) {
	// Type conversions.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		c.checkConversion(info, call, parents, add)
		return
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			switch id.Name {
			case "make":
				add(call.Pos(), "make allocates")
			case "new":
				add(call.Pos(), "new allocates")
			case "append":
				if len(call.Args) > 0 && !reusableSlice(call.Args[0]) {
					add(call.Pos(), "append to a fresh slice allocates its backing array")
				}
			}
			return
		}
	}
	fn := callgraph.StaticCallee(info, call)
	if fn == nil {
		if _, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			return // immediately-invoked literal: its body is walked inline
		}
		// Method expressions / func-typed values / interface dispatch:
		// the target is unknown, so the property is unprovable.
		if !isBuiltinLike(info, call) {
			add(call.Pos(), "dynamic call cannot be proven allocation-free")
		}
		return
	}
	if s := c.summary(fn); s != "" {
		add(call.Pos(), s)
	}
	c.checkBoxing(info, call, fn, add)
}

// isBuiltinLike filters the dynamic-call check's false positives: calls
// whose operator has no type entry at all (shouldn't happen in a
// type-checked unit) are skipped rather than flagged.
func isBuiltinLike(info *types.Info, call *ast.CallExpr) bool {
	_, ok := info.Types[call.Fun]
	return !ok
}

// checkConversion flags allocating conversions between strings and
// byte/rune slices, permitting the two compiler-optimized contexts:
// map indexing (m[string(b)]) and string comparison (string(b) == s).
func (c *checker) checkConversion(info *types.Info, call *ast.CallExpr, parents map[ast.Node]ast.Node, add func(token.Pos, string)) {
	if len(call.Args) != 1 {
		return
	}
	to := underlying(info.TypeOf(call.Fun))
	from := underlying(info.TypeOf(call.Args[0]))
	switch {
	case isStringType(to) && (isByteOrRuneSlice(from) || isIntegerType(from)):
		if optimizedStringConversion(call, parents) {
			return
		}
		add(call.Pos(), "string conversion allocates outside a map index or comparison")
	case isByteOrRuneSlice(to) && isStringType(from):
		add(call.Pos(), "[]byte/[]rune conversion of a string allocates")
	}
}

// optimizedStringConversion reports whether the string(b) conversion
// sits in a context the compiler compiles without allocating: the key
// of a map index expression, or an operand of ==/!=/</<=/>/>=.
func optimizedStringConversion(call *ast.CallExpr, parents map[ast.Node]ast.Node) bool {
	p := parents[call]
	for {
		pe, ok := p.(*ast.ParenExpr)
		if !ok {
			break
		}
		p = parents[pe]
	}
	switch p := p.(type) {
	case *ast.IndexExpr:
		return p.Index == call || withinParens(p.Index, call)
	case *ast.BinaryExpr:
		switch p.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			return true
		}
	}
	return false
}

func withinParens(e ast.Expr, call *ast.CallExpr) bool {
	return ast.Unparen(e) == call
}

// checkBoxing flags arguments whose static type is a non-pointer-shaped
// concrete value passed where the callee expects an interface: the
// conversion boxes and allocates.
func (c *checker) checkBoxing(info *types.Info, call *ast.CallExpr, fn *types.Func, add func(token.Pos, string)) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no per-element boxing
			}
			st, ok := underlying(params.At(params.Len() - 1).Type()).(*types.Slice)
			if !ok {
				continue
			}
			pt = st.Elem()
		default:
			continue
		}
		if !types.IsInterface(underlying(pt)) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(underlying(at)) || pointerShaped(underlying(at)) || isUntypedNil(info, arg) {
			continue
		}
		add(arg.Pos(), "passing a non-pointer "+at.String()+" in an interface parameter boxes and allocates")
	}
}

// capturedVar returns the name of a variable the function literal
// captures from an enclosing function scope ("" when it captures
// nothing): captured closures are heap-allocated funcvals.
func capturedVar(info *types.Info, lit *ast.FuncLit) string {
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level variable: no capture
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			name = v.Name()
			return false
		}
		return true
	})
	return name
}

// parentMap records each node's syntactic parent within body.
func parentMap(body ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// reusableSlice reports whether an append first argument names existing
// storage: an identifier, a field or index selection, or a re-slice of
// one — the amortized-reuse idiom.
func reusableSlice(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name != "nil"
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return true
	case *ast.SliceExpr:
		return reusableSlice(e.X)
	}
	return false
}

func underlying(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func isStringType(t types.Type) bool {
	b, ok := underlying(t).(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isIntegerType(t types.Type) bool {
	b, ok := underlying(t).(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := underlying(t).(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// pointerShaped reports whether values of t fit an interface's data
// word without boxing.
func pointerShaped(t types.Type) bool {
	switch t.(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		b := t.(*types.Basic)
		return b.Kind() == types.UnsafePointer
	}
	return false
}

func isUntypedNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}
