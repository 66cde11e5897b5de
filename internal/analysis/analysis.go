// Package analysis is a self-contained static-analysis framework for the
// tofu tree, API-compatible (in shape) with golang.org/x/tools/go/analysis
// but built entirely on the standard library so the checkers run in this
// module with zero external dependencies. Packages are type-checked against
// gc export data produced by `go list -export`, which is how the real
// unitchecker works under `go vet` as well.
//
// The framework exists to enforce the two invariants every result in this
// reproduction rests on (see DESIGN.md, "Static invariants and tofu-vet"):
// plans must serialize byte-identically at any parallelism, and the DP sweep
// must stay allocation-free. Analyzers live in subpackages (mapiter,
// hotalloc, nodeterm, errdrop); cmd/tofu-vet is the multichecker driver.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer so the checkers could move onto
// the real framework wholesale if the dependency ever lands in this module.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -json output.
	Name string
	// Doc is the one-paragraph description shown by tofu-vet -list.
	Doc string
	// Allow is the //tofu:allow-<Allow> suppression token; empty means Name.
	// nodeterm uses "nondet", matching the annotation grammar in DESIGN.md.
	Allow string
	// Run executes the check over one package and reports through the pass.
	Run func(*Pass) error
}

// AllowToken returns the suppression token for //tofu:allow-<token>.
func (a *Analyzer) AllowToken() string {
	if a.Allow != "" {
		return a.Allow
	}
	return a.Name
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Diagnostic is one finding, positioned in the analyzed package.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// Report records a finding.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the static type of an expression (nil if untyped, e.g. a
// package identifier).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.TypesInfo.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// ObjectOf resolves an identifier to its object (uses then defs).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.TypesInfo.ObjectOf(id) }

// CalleeFunc resolves a call to the *types.Func it invokes (package function
// or method), nil for builtins, conversions and indirect calls through
// function-typed variables.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := p.ObjectOf(fun).(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := p.TypesInfo.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Qualified package call: pkg.Fn.
		if f, ok := p.ObjectOf(fun.Sel).(*types.Func); ok {
			return f
		}
	}
	return nil
}

// IsBuiltin reports whether the call invokes the named builtin (append, make,
// ...), respecting shadowing via the type checker.
func (p *Pass) IsBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = p.ObjectOf(id).(*types.Builtin)
	return ok
}

// CallName renders the callee expression of a call for diagnostics
// ("enc.Encode", "fmt.Fprintf", ...).
func (p *Pass) CallName(call *ast.CallExpr) string {
	return ExprString(call.Fun)
}

// ExprString renders a (small) expression as source text, for diagnostics
// and for matching sort targets by name.
func ExprString(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return ExprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return ExprString(x.X) + "[...]"
	case *ast.CallExpr:
		return ExprString(x.Fun) + "(...)"
	case *ast.StarExpr:
		return "*" + ExprString(x.X)
	case *ast.UnaryExpr:
		return x.Op.String() + ExprString(x.X)
	default:
		return fmt.Sprintf("%T", e)
	}
}
