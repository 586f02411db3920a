// Package analysis implements scaplint, a repo-specific static-analysis
// suite for the capture path's hot-path and concurrency invariants.
//
// The paper's performance claims rest on a disciplined split between the
// per-core kernel path (one goroutine owning each engine) and user threads
// reading snapshots. Go's race detector only checks the interleavings tests
// happen to execute; these analyzers enforce the invariants statically:
//
//   - statssnapshot: exported snapshot getters on shared types must not
//     return structs whose fields are mutated elsewhere without
//     synchronization (the Engine.Stats data-race shape).
//   - hotpathalloc: functions marked //scap:hotpath must not allocate
//     (fmt formatting, time.Now, map/slice literals, make, new, capturing
//     closures, unvetted append) on the per-packet path.
//   - lockdiscipline: struct fields annotated "guarded by <mu>" must only
//     be touched by methods that acquire that mutex (or are *Locked
//     helpers called with it held).
//   - metricreg: functions marked //scap:hotpath may only use the
//     internal/metrics atomic fast path (Add/Inc/Set/Observe/ObserveEx/ObserveN/Load/Note/Put);
//     metric registration and snapshot assembly belong in setup code.
//   - exporteddoc: packages carrying a //scap:publicapi file marker must
//     document every exported symbol.
//
// On top of the per-package checks, three whole-program analyzers walk a
// call graph spanning every loaded package (the loader shares types.Func
// identity across packages, so cross-package edges resolve):
//
//   - ownership: //scap:goroutine <role> marks goroutine entry points;
//     roles propagate over call edges and must respect //scap:owner,
//     //scap:spsc + //scap:produce///scap:consume, and //scap:onlyrole
//     constraints (single-writer engines, SPSC rings, return rings).
//   - atomicfield: a field accessed via sync/atomic anywhere must never
//     be accessed plainly elsewhere; 64-bit atomics must be 8-byte
//     aligned on 32-bit layouts; //scap:atomics structs stay all-atomic.
//   - hotpathblock: //scap:hotpath functions and their transitive
//     callees must not block (channel ops, select without default,
//     time.Sleep, sync.Mutex/RWMutex acquisition, syscalls, I/O) — the
//     per-packet path shares state through single-writer structures and
//     atomics, not locks.
//
// Everything is built on the stdlib go/ast + go/types + go/parser stack;
// the module stays dependency-free. Findings can be suppressed line-by-line
// with "//scaplint:ignore <analyzer> <reason>" on the flagged line or the
// line above it; Run tracks which directives actually fire so stale ones
// can be reported (scaplint -unusedignores).
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named check. Per-package analyzers set Run; whole-
// program analyzers (which need the cross-package call graph) set
// RunProgram. Exactly one of the two should be non-nil.
type Analyzer struct {
	Name       string
	Doc        string
	Run        func(p *Package) []Diagnostic
	RunProgram func(prog *Program) []Diagnostic
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		StatsSnapshot, HotPathAlloc, LockDiscipline, MetricReg, ExportedDoc,
		Ownership, AtomicField, HotPathBlock,
	}
}

// IgnoreInfo describes one //scaplint:ignore directive seen during a run
// and whether it suppressed anything.
type IgnoreInfo struct {
	Pos      token.Position
	Analyzer string // "" for a bare directive
	Reason   string
	Used     bool
}

// Result is the outcome of applying an analyzer suite to a package set.
type Result struct {
	// Diags holds the surviving (unsuppressed) findings, sorted by
	// position.
	Diags []Diagnostic
	// Ignores lists every suppression directive in the analyzed
	// packages, in position order, with its usage during this run.
	Ignores []IgnoreInfo
}

// Run applies the analyzers to every package (and, for whole-program
// analyzers, to all of them together), drops suppressed diagnostics, and
// reports the rest along with suppression usage.
func Run(pkgs []*Package, analyzers []*Analyzer) Result {
	sup := newSuppressionSet()
	for _, p := range pkgs {
		sup.collect(p)
	}
	prog := NewProgram(pkgs)
	var out []Diagnostic
	collect := func(ds []Diagnostic) {
		for _, d := range ds {
			if sup.matches(d) {
				continue
			}
			out = append(out, d)
		}
	}
	for _, a := range analyzers {
		if a.Run != nil {
			for _, p := range pkgs {
				collect(a.Run(p))
			}
		}
		if a.RunProgram != nil {
			collect(a.RunProgram(prog))
		}
	}
	sortDiagnostics(out)
	res := Result{Diags: out}
	for _, dir := range sup.directives {
		res.Ignores = append(res.Ignores, IgnoreInfo{
			Pos:      dir.Pos,
			Analyzer: dir.Analyzer,
			Reason:   dir.Reason,
			Used:     dir.used,
		})
	}
	sort.Slice(res.Ignores, func(i, j int) bool {
		return positionLess(res.Ignores[i].Pos, res.Ignores[j].Pos)
	})
	return res
}

// RunAll applies the analyzers to every package, drops suppressed
// diagnostics, and sorts the rest by position.
func RunAll(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return Run(pkgs, analyzers).Diags
}

// UnusedIgnoreDiagnostics converts stale or malformed suppression
// directives of a run into diagnostics (analyzer name "unusedignores").
// Each directive yields at most one finding, most fundamental first:
// bare directives, unknown analyzer names, missing justifications, then
// directives that suppressed nothing.
func UnusedIgnoreDiagnostics(res Result, suite []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(suite))
	for _, a := range suite {
		known[a.Name] = true
	}
	var out []Diagnostic
	add := func(pos token.Position, format string, args ...any) {
		out = append(out, Diagnostic{Pos: pos, Analyzer: "unusedignores", Message: fmt.Sprintf(format, args...)})
	}
	for _, ig := range res.Ignores {
		switch {
		case ig.Analyzer == "":
			add(ig.Pos, "bare //scaplint:ignore suppresses every analyzer: name the analyzer and give a reason")
		case !known[ig.Analyzer]:
			add(ig.Pos, "//scaplint:ignore names unknown analyzer %q", ig.Analyzer)
		case ig.Reason == "":
			add(ig.Pos, "//scaplint:ignore %s has no justification: say why the finding is safe", ig.Analyzer)
		case !ig.Used:
			add(ig.Pos, "stale //scaplint:ignore %s: it no longer suppresses any diagnostic", ig.Analyzer)
		}
	}
	return out
}

func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if !positionEqual(a.Pos, b.Pos) {
			return positionLess(a.Pos, b.Pos)
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

func positionLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

func positionEqual(a, b token.Position) bool {
	return a.Filename == b.Filename && a.Line == b.Line && a.Column == b.Column
}
