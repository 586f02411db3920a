// Command scaplint runs the repo's custom static analyzers over the
// module. The per-package suite checks racy snapshot getters
// (statssnapshot), allocation on the //scap:hotpath per-packet path
// (hotpathalloc), "guarded by mu" field access outside the mutex
// (lockdiscipline), metrics
// registration discipline (metricreg), and doc comments on the public
// API (exporteddoc). The whole-program suite builds a module-wide call
// graph and verifies concurrency contracts: goroutine ownership of
// single-writer state and SPSC ring ends (ownership), mixed
// atomic/plain field access and 64-bit atomic alignment (atomicfield),
// and blocking operations or mutex acquisition reachable from the hot
// path (hotpathblock).
//
// Usage:
//
//	go run ./cmd/scaplint ./...          # whole module (the default)
//	go run ./cmd/scaplint ./internal/core ./internal/event
//	go run ./cmd/scaplint -list          # print the analyzer suite
//	go run ./cmd/scaplint -json ./...    # findings as a JSON array
//	go run ./cmd/scaplint -unusedignores ./...  # also flag stale/bare ignores
//
// scaplint exits 1 when it reports findings and 2 on usage or load errors.
// Suppress an individual finding with a justification:
//
//	x = append(x, y) //scaplint:ignore hotpathalloc appends into preallocated capacity
//
// With -unusedignores, a //scaplint:ignore that no longer suppresses
// anything, names an unknown analyzer, is missing its reason, or is bare
// (no analyzer name) becomes a finding itself, so suppressions cannot
// silently outlive the code they excused.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"scap/internal/analysis"
)

// jsonFinding is the -json wire shape of one diagnostic, one object per
// finding, matching the text output's file:line:col: analyzer: message.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	verbose := flag.Bool("v", false, "print progress and type-load warnings")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	unusedIgnores := flag.Bool("unusedignores", false, "flag stale, bare, unknown-analyzer, and unjustified //scaplint:ignore directives")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fatal(err)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Packages(patterns...)
	if err != nil {
		fatal(err)
	}
	if *verbose {
		for _, p := range pkgs {
			fmt.Fprintf(os.Stderr, "scaplint: loaded %s (%d files, %d type warnings)\n",
				p.Path, len(p.Files), len(p.TypeErrors))
			for _, te := range p.TypeErrors {
				fmt.Fprintf(os.Stderr, "scaplint: \ttype warning: %v\n", te)
			}
		}
	}
	suite := analysis.All()
	res := analysis.Run(pkgs, suite)
	diags := res.Diags
	if *unusedIgnores {
		diags = append(diags, analysis.UnusedIgnoreDiagnostics(res, suite)...)
	}
	if *jsonOut {
		findings := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			findings = append(findings, jsonFinding{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "scaplint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scaplint:", err)
	os.Exit(2)
}
