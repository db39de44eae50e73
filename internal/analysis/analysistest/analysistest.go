// Package analysistest runs a seqlint analyzer over fixture packages
// under testdata/src and checks its diagnostics against // want
// comments, mirroring golang.org/x/tools/go/analysis/analysistest on
// the standard library alone.
//
// A fixture file marks each expected diagnostic with a comment on the
// same line:
//
//	f, _ := os.Create(path) // want `direct os\.Create in internal/store`
//
// The expectation is a regular expression, quoted with backquotes or
// double quotes; several per comment are allowed. Every reported
// diagnostic must match an expectation on its line and every
// expectation must be matched by a diagnostic, or the test fails.
//
// Fixture import paths are rooted at testdata/src: Run(t, a,
// "internal/store") loads testdata/src/internal/store. Imports between
// fixture packages resolve the same way; everything else (stdlib,
// module packages) resolves through the repo's export data, so
// fixtures can import the real repro/internal/obs if they need to.
// Diagnostics flow through the production driver, so //seqlint:ignore
// directives behave identically in fixtures and in real code.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis/driver"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/load"
)

// fixtureImporter resolves import paths against testdata/src from
// source first, falling back to the loader's export-data importer for
// stdlib and real module packages.
type fixtureImporter struct {
	fset *token.FileSet
	src  string // testdata/src
	base types.Importer
	pkgs map[string]*types.Package
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := fi.pkgs[path]; ok {
		return p, nil
	}
	files, err := parseFixtureDir(fi.fset, filepath.Join(fi.src, filepath.FromSlash(path)))
	if err != nil || len(files) == 0 {
		return fi.base.Import(path)
	}
	pkg, _, terrs := load.CheckFiles(fi.fset, path, files, fi)
	if len(terrs) > 0 {
		return nil, fmt.Errorf("fixture package %s: %v", path, terrs[0])
	}
	fi.pkgs[path] = pkg
	return pkg, nil
}

func parseFixtureDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// expectation is one // want entry: a line that must produce a
// diagnostic matching re.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRE = regexp.MustCompile(`(?:^|\s)want\s+(.*)$`)

// parseWants extracts // want expectations from a file's comments.
func parseWants(t *testing.T, fset *token.FileSet, f *ast.File) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			m := wantRE.FindStringSubmatch(text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			for _, raw := range splitQuoted(t, m[1], pos) {
				re, err := regexp.Compile(raw)
				if err != nil {
					t.Fatalf("%s: bad want pattern %q: %v", pos, raw, err)
				}
				wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
			}
		}
	}
	return wants
}

// splitQuoted parses a sequence of backquoted or double-quoted strings.
func splitQuoted(t *testing.T, s string, pos token.Position) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				t.Fatalf("%s: unterminated backquote in want comment", pos)
			}
			out = append(out, s[1:1+end])
			s = s[end+2:]
		case '"':
			val, rest, err := unquotePrefix(s)
			if err != nil {
				t.Fatalf("%s: bad quoted string in want comment: %v", pos, err)
			}
			out = append(out, val)
			s = rest
		default:
			t.Fatalf("%s: want patterns must be quoted with \" or `, got %q", pos, s)
		}
		s = strings.TrimSpace(s)
	}
	return out
}

func unquotePrefix(s string) (val, rest string, err error) {
	for i := 1; i < len(s); i++ {
		if s[i] == '\\' {
			i++
			continue
		}
		if s[i] == '"' {
			val, err = strconv.Unquote(s[:i+1])
			return val, s[i+1:], err
		}
	}
	return "", "", fmt.Errorf("unterminated string %q", s)
}

// LoadFixture parses and type-checks the fixture packages under
// testdata/src/<path> and returns the shared FileSet plus the loader
// units, in argument order. All packages are checked against one
// importer, so cross-fixture imports resolve within the returned set —
// the same program view Run hands the driver. Tests use it to build
// passes or call graphs over fixtures directly.
func LoadFixture(t *testing.T, pkgPaths ...string) (*token.FileSet, []*load.Unit) {
	t.Helper()
	src, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	ldr, err := load.New(".")
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	fi := &fixtureImporter{fset: ldr.Fset, src: src, base: ldr.Importer(), pkgs: make(map[string]*types.Package)}

	var units []*load.Unit
	for _, path := range pkgPaths {
		dir := filepath.Join(src, filepath.FromSlash(path))
		files, err := parseFixtureDir(ldr.Fset, dir)
		if err != nil {
			t.Fatalf("analysistest: fixture %s: %v", path, err)
		}
		if len(files) == 0 {
			t.Fatalf("analysistest: fixture %s: no .go files in %s", path, dir)
		}
		pkg, info, terrs := load.CheckFiles(ldr.Fset, path, files, fi)
		for _, te := range terrs {
			t.Errorf("analysistest: fixture %s does not type-check: %v", path, te)
		}
		if len(terrs) > 0 {
			t.FailNow()
		}
		units = append(units, &load.Unit{Path: path, Dir: dir, Files: files, Pkg: pkg, Info: info})
	}
	return ldr.Fset, units
}

// Run loads each fixture package from testdata/src/<path>, applies the
// analyzer through the production driver, and checks its diagnostics
// against the fixtures' // want comments.
func Run(t *testing.T, a *framework.Analyzer, pkgPaths ...string) {
	t.Helper()
	fset, units := LoadFixture(t, pkgPaths...)

	var wants []*expectation
	for _, u := range units {
		for _, f := range u.Files {
			wants = append(wants, parseWants(t, fset, f)...)
		}
	}

	diags, err := driver.RunUnits(fset, units, []*framework.Analyzer{a})
	if err != nil {
		t.Fatalf("analysistest: %s failed: %v", a.Name, err)
	}

	for _, d := range diags {
		if !match(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

func match(wants []*expectation, d framework.Diagnostic) bool {
	for _, w := range wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}
