// Command tofu-vet is the multichecker for this tree's project-specific
// invariant analyzers (see DESIGN.md, "Static invariants and tofu-vet"):
//
//	mapiter   map iteration must not feed ordered output unsorted
//	hotalloc  //tofu:hotpath functions must not allocate
//	nodeterm  //tofu:searchpath packages must be deterministic
//	ctxpoll   unbounded //tofu:searchpath loops must poll cancellation
//	errdrop   error returns must not be discarded outside tests
//
// Standalone:
//
//	go run ./cmd/tofu-vet ./...           # human-readable, exit 2 on findings
//	go run ./cmd/tofu-vet -json ./...     # machine-readable diagnostics
//	go run ./cmd/tofu-vet -list           # analyzer inventory
//
// Exit status: 0 clean, 1 operational error, 2 diagnostics reported.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"tofu/internal/analysis"
	"tofu/internal/analysis/ctxpoll"
	"tofu/internal/analysis/errdrop"
	"tofu/internal/analysis/hotalloc"
	"tofu/internal/analysis/mapiter"
	"tofu/internal/analysis/nodeterm"
)

func analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxpoll.Analyzer,
		errdrop.Analyzer,
		hotalloc.Analyzer,
		mapiter.Analyzer,
		nodeterm.Analyzer,
	}
}

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tofu-vet [-json] packages...\n\nAnalyzers:\n")
		for _, a := range analyzers() {
			fmt.Fprintf(os.Stderr, "  %-9s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	if *list {
		for _, a := range analyzers() {
			fmt.Printf("%-9s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	pkgs, err := analysis.Load(wd, patterns)
	if err != nil {
		fatal(err)
	}
	diags := []analysis.Diagnostic{} // non-nil so -json prints [] when clean
	for _, pkg := range pkgs {
		ds, err := analysis.Run(pkg, analyzers())
		if err != nil {
			fatal(err)
		}
		diags = append(diags, ds...)
	}
	// Package order is already sorted; keep cross-package output stable by
	// file path, then position.
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Diagnostics []analysis.Diagnostic `json:"diagnostics"`
		}{Diagnostics: diags}); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s:%d:%d: %s [%s]\n", rel(wd, d.File), d.Line, d.Col, d.Message, d.Analyzer)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "tofu-vet: %d finding(s)\n", len(diags))
		}
		os.Exit(2)
	}
}

// rel shortens absolute paths for terminal output.
func rel(wd, path string) string {
	if strings.HasPrefix(path, wd+string(os.PathSeparator)) {
		return path[len(wd)+1:]
	}
	return path
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tofu-vet:", err)
	os.Exit(1)
}
