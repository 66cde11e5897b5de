// Package nodeterm forbids sources of nondeterminism inside the search and
// pricing code paths — everything reachable from dp.Solve and
// recursive.Partition. Plans from those paths key the content-addressed
// cache by digest; a wall clock, a random number, or a scheduler-order
// select anywhere in them silently turns "byte-identical at any
// parallelism" into "usually identical".
//
// Scope is annotation-driven: the analyzer only fires in packages whose
// package doc carries //tofu:searchpath (internal/dp, internal/recursive,
// internal/hybrid, internal/coarsen, internal/partition, internal/graph,
// internal/plan, internal/shape, internal/obs — the search entry points and
// what they import). Inside those packages it flags:
//   - calls to time.Now / Since / Until / After / Tick / NewTimer / NewTicker
//   - any import of math/rand or math/rand/v2
//   - select statements with two or more channel cases (which ready channel
//     wins is a scheduler coin flip)
//
// Latency accounting that provably never reaches plan bytes is suppressed
// with `//tofu:allow-nondet <reason>`.
package nodeterm

import (
	"go/ast"
	"strings"

	"tofu/internal/analysis"
)

// Analyzer is the nodeterm pass.
var Analyzer = &analysis.Analyzer{
	Name:  "nodeterm",
	Doc:   "forbids time.Now, math/rand and multi-channel select in //tofu:searchpath packages",
	Allow: "nondet",
	Run:   run,
}

// timeFuncs are the wall-clock entry points; reading the clock anywhere on
// the search path is flagged (time.Since and friends call time.Now).
var timeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

func run(pass *analysis.Pass) error {
	if !analysis.PackageMarked(pass.Files, "searchpath") {
		return nil
	}
	for _, file := range pass.Files {
		for _, spec := range file.Imports {
			path := strings.Trim(spec.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(spec.Pos(), "import of %s in search path: random choices break byte-identical plans", path)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if f := pass.CalleeFunc(x); f != nil && f.Pkg() != nil &&
					f.Pkg().Path() == "time" && timeFuncs[f.Name()] {
					pass.Reportf(x.Pos(), "time.%s in search path: wall-clock reads make search results timing-dependent", f.Name())
				}
			case *ast.SelectStmt:
				comm := 0
				for _, c := range x.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
						comm++
					}
				}
				if comm >= 2 {
					pass.Reportf(x.Pos(), "select over %d channels in search path: case choice is scheduler-order nondeterministic", comm)
				}
			}
			return true
		})
	}
	return nil
}
