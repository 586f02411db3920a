package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// MetricReg enforces the registration/update split of internal/metrics on
// the per-packet path: functions marked //scap:hotpath may only touch the
// metrics package through its atomic fast path (Cell.Add/Inc, Gauge.Set/
// Add, Histogram.Observe/ObserveN, FlightRecorder.Note, and the Load readers). Metric
// registration (NewCounter, NewGauge, NewHistogram, ...) and snapshot
// assembly take the registry mutex and allocate; both belong in setup
// code, before the capture loop starts.
var MetricReg = &Analyzer{
	Name: "metricreg",
	Doc:  "only atomic metrics-package operations in //scap:hotpath functions",
	Run:  runMetricReg,
}

// metricsFastPath is the allowlist of metrics-package operations that are
// a single atomic op (or a fixed handful of them) and therefore safe on
// the per-packet path. Put is the seqlock record ring's writer, Note and
// NoteAt the flight recorder's fixed-size no-alloc encoders over it;
// ObserveEx is Observe plus a best-effort seqlock exemplar write (a few
// uncontended atomics, never blocking); ObserveN is Observe for n equal
// values (the same two atomic adds); Nanotime is the alloc-free capture
// clock.
var metricsFastPath = map[string]bool{
	"Add":       true,
	"Inc":       true,
	"Set":       true,
	"Observe":   true,
	"ObserveEx": true,
	"ObserveN":  true,
	"Load":      true,
	"Note":      true,
	"NoteAt":    true,
	"Put":       true,
	"Nanotime":  true,
}

func runMetricReg(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, fd := range hotpathFuncs(p) {
		if fd.Body == nil {
			continue
		}
		fname := fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) > 0 {
			if tn := receiverTypeName(fd); tn != "" {
				fname = tn + "." + fname
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee, recv := metricsCallee(p, call)
			if callee == "" || metricsFastPath[callee] {
				return true
			}
			msg := fmt.Sprintf(
				"%s: call to metrics.%s in a hot path (register metrics and take snapshots at setup; the per-packet path may only use the atomic fast path: Add/Inc/Set/Observe/ObserveEx/ObserveN/Load/Note/Put/Nanotime)",
				fname, callee)
			if recv == "FlightRecorder" {
				// Flight-record emission in hot-path code may only use the
				// fixed-size no-alloc encoder; decoding belongs to readers.
				msg = fmt.Sprintf(
					"%s: call to metrics.FlightRecorder.%s in a hot path (flight records in //scap:hotpath code may only be emitted with the fixed-size no-alloc encoder FlightRecorder.Note; Snapshot/Dump/Total are cold read paths)",
					fname, callee)
			}
			diags = append(diags, Diagnostic{
				Pos:      p.Fset.Position(call.Pos()),
				Analyzer: "metricreg",
				Message:  msg,
			})
			return true
		})
	}
	return diags
}

// metricsCallee returns the name of the metrics-package function or method
// a call resolves to (plus its receiver type name, "" for package-level
// functions), or "" when the callee is not from internal/metrics. Both
// method calls (via the selection) and package-qualified function calls
// (via object uses) are resolved through the type checker, so local types
// with coincidentally matching method names are not flagged.
func metricsCallee(p *Package, call *ast.CallExpr) (name, recv string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	var fn *types.Func
	if s, ok := p.Info.Selections[sel]; ok {
		fn, _ = s.Obj().(*types.Func)
	} else if obj, ok := p.Info.Uses[sel.Sel]; ok {
		fn, _ = obj.(*types.Func)
	}
	if fn == nil || fn.Pkg() == nil || !isMetricsPkgPath(fn.Pkg().Path()) {
		return "", ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			recv = named.Obj().Name()
		}
	}
	return fn.Name(), recv
}

// isMetricsPkgPath matches the metrics package by path suffix so the
// analyzer also works on testdata fixtures loaded outside the module.
func isMetricsPkgPath(path string) bool {
	return path == "scap/internal/metrics" || strings.HasSuffix(path, "/internal/metrics")
}
