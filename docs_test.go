package tofu_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	codeFence = regexp.MustCompile("(?s)```.*?```")
	codeSpan  = regexp.MustCompile("`([^`]+)`")
	qualified = regexp.MustCompile(`(^|[^\w./])(\w+)\.([A-Z]\w*)`)
)

// TestDocIdentifiersResolve checks that every backticked pkg.Name in
// DESIGN.md, README.md and the skill notes, with pkg the tofu package or a
// package under internal/ and Name exported, names a declaration of that
// package (a method counts) — so deleting or renaming an API fails here
// until the prose follows.
func TestDocIdentifiersResolve(t *testing.T) {
	decls := packageDecls(t)
	skills, err := filepath.Glob(".*/skills/*/SKILL.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range append([]string{"DESIGN.md", "README.md"}, skills...) {
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
		}
	}
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
