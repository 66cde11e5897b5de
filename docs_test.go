package tofu_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	codeFence = regexp.MustCompile("(?s)```.*?```")
	codeSpan  = regexp.MustCompile("`([^`]+)`")
	qualified = regexp.MustCompile(`(^|[^\w./])(\w+)\.([A-Z]\w*)`)
	testName  = regexp.MustCompile(`(^|[^\w.])((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)`)
	repoPath  = regexp.MustCompile(`^(\./)?([\w.*-]+/)*[A-Za-z0-9*][\w.*-]*\.(go|json|sh|md|yml)$`)
)

// TestDocIdentifiersResolve checks that every backticked pkg.Name in
// DESIGN.md, README.md, bench/README.md and the skill notes, with pkg the
// tofu package or a package under internal/ and Name exported, names a
// declaration of that package (a method counts) — so deleting or renaming
// an API fails here until the prose follows. In the three READMEs and
// DESIGN.md it also resolves every backticked Test*, Benchmark* or Fuzz*
// name to a function of some _test.go file, and every backticked span that
// is a file path ending .go, .json, .sh, .md or .yml to a repository file
// (the skill notes also name files that are gone, on purpose).
func TestDocIdentifiersResolve(t *testing.T) {
	decls := packageDecls(t)
	tests, files := repoTestsAndFiles(t)
	skills, err := filepath.Glob(".*/skills/*/SKILL.md")
	if err != nil {
		t.Fatal(err)
	}
	refDocs := []string{"DESIGN.md", "README.md", "bench/README.md"}
	for i, doc := range append(refDocs, skills...) {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := codeFence.ReplaceAllString(string(raw), "")
		for _, span := range codeSpan.FindAllStringSubmatch(text, -1) {
			for _, m := range qualified.FindAllStringSubmatch(span[1], -1) {
				pkg, name := m[2], m[3]
				names, ok := decls[pkg]
				if ok && !names[name] {
					t.Errorf("%s: `%s` names %s.%s, which package %s does not declare", doc, span[1], pkg, name, pkg)
				}
			}
			if i >= len(refDocs) {
				continue
			}
			for _, m := range testName.FindAllStringSubmatch(span[1], -1) {
				if !tests[m[2]] {
					t.Errorf("%s: `%s` names %s, which no _test.go file declares", doc, span[1], m[2])
				}
			}
			if repoPath.MatchString(span[1]) && !pathResolves(files, span[1]) {
				t.Errorf("%s: `%s` is no repository file", doc, span[1])
			}
		}
	}
}

// repoTestsAndFiles walks the repository: the names of the top-level
// functions of every _test.go file outside testdata/, and the slash paths of
// all files.
func repoTestsAndFiles(t *testing.T) (tests map[string]bool, files []string) {
	t.Helper()
	tests = map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		p = filepath.ToSlash(p)
		files = append(files, p)
		if !strings.HasSuffix(p, "_test.go") || strings.Contains("/"+p, "/testdata/") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				tests[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tests, files
}

// pathResolves reports whether some repository file's path ends in ref, a
// slash path that may hold glob patterns: `internal/dp/bound.go` from the
// root, or `table.go` and `workloads/*.json` relative to the package or
// directory the prose is about.
func pathResolves(files []string, ref string) bool {
	ref = path.Clean(ref)
	n := strings.Count(ref, "/") + 1
	for _, f := range files {
		segs := strings.Split(f, "/")
		if len(segs) < n {
			continue
		}
		if ok, _ := path.Match(ref, strings.Join(segs[len(segs)-n:], "/")); ok {
			return true
		}
	}
	return false
}

// packageDecls maps each package name (tofu and every package under
// internal/) to the names of its non-test declarations and methods.
func packageDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	decls := map[string]map[string]bool{}
	add := func(dir string) {
		fset := token.NewFileSet()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			names := decls[f.Name.Name]
			if names == nil {
				names = map[string]bool{}
				decls[f.Name.Name] = names
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl: // methods too: prose says graph.Subgraph
					names[d.Name.Name] = true
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							names[s.Name.Name] = true
						case *ast.ValueSpec:
							for _, n := range s.Names {
								names[n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	add(".")
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() {
			add(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}
