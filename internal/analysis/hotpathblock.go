package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathBlock verifies that //scap:hotpath functions and everything they
// transitively call (over static call edges) never block: no channel
// sends or receives, no select without a default case, no range over a
// channel, no time.Sleep, no sync.WaitGroup.Wait / sync.Cond.Wait, no
// sync.Mutex/sync.RWMutex acquisition, and no calls into syscall/I-O
// packages (os, net, net/http, syscall). A select with a default case is
// the sanctioned non-blocking notify idiom and is allowed; goroutines
// launched with "go" run elsewhere and are not walked.
//
// Locks count as blocking because the paper's per-packet path shares state
// through single-writer structures and atomics (per-core engines, SPSC
// event rings, atomic memory accounting); a mutex on that path — in the
// marked function or any callee — reintroduces the cross-core
// serialization the design removes. Audited exceptions carry
// //scaplint:ignore hotpathblock with a justification.
var HotPathBlock = &Analyzer{
	Name:       "hotpathblock",
	Doc:        "//scap:hotpath functions and their transitive callees must not block (channel ops, blocking select, time.Sleep, mutex acquisition, syscalls, I/O)",
	RunProgram: runHotPathBlock,
}

// blockingPkgs are packages whose calls mean a syscall or I/O.
var blockingPkgs = map[string]bool{
	"os":       true,
	"net":      true,
	"net/http": true,
	"syscall":  true,
}

// blockingFuncs are individual stdlib functions/methods that park the
// calling goroutine, keyed by types.Func.FullName. Resolving the callee
// through the type checker covers embedded (promoted) mutexes and leaves
// look-alike Lock methods on other types alone. The Try forms are listed
// too: a TryLock that succeeds still serializes the other cores.
var blockingFuncs = map[string]string{
	"time.Sleep":               "time.Sleep",
	"(*sync.WaitGroup).Wait":   "sync.WaitGroup.Wait",
	"(*sync.Cond).Wait":        "sync.Cond.Wait",
	"(*sync.Once).Do":          "sync.Once.Do", // parks while another goroutine runs the init
	"(*sync.Mutex).Lock":       "sync.Mutex.Lock",
	"(*sync.Mutex).TryLock":    "sync.Mutex.TryLock",
	"(*sync.RWMutex).Lock":     "sync.RWMutex.Lock",
	"(*sync.RWMutex).TryLock":  "sync.RWMutex.TryLock",
	"(*sync.RWMutex).RLock":    "sync.RWMutex.RLock",
	"(*sync.RWMutex).TryRLock": "sync.RWMutex.TryRLock",
}

func runHotPathBlock(prog *Program) []Diagnostic {
	// Multi-source BFS from every //scap:hotpath function over call
	// edges, recording one witness predecessor per reached function.
	roots := make(map[*types.Func]bool)
	pred := make(map[*types.Func]*types.Func)
	var queue []*funcNode
	for _, n := range prog.funcs() {
		if hasMarker(n.decl.Doc, hotpathMarker) {
			roots[n.fn] = true
			pred[n.fn] = nil
			queue = append(queue, n)
		}
	}
	reached := make([]*funcNode, 0, len(queue))
	seen := make(map[*types.Func]bool)
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if seen[n.fn] {
			continue
		}
		seen[n.fn] = true
		reached = append(reached, n)
		for _, e := range n.out {
			if e.kind != edgeCall {
				continue
			}
			next := prog.node(e.callee)
			if next == nil || seen[next.fn] {
				continue
			}
			if _, ok := pred[next.fn]; !ok {
				pred[next.fn] = n.fn
			}
			queue = append(queue, next)
		}
	}

	var diags []Diagnostic
	for _, n := range reached {
		for _, site := range blockingSites(n) {
			diags = append(diags, Diagnostic{
				Pos:      n.pkg.Fset.Position(site.pos),
				Analyzer: "hotpathblock",
				Message:  fmt.Sprintf("%s on the hot path (%s)", site.what, witness(n.fn, roots, pred)),
			})
		}
	}
	return diags
}

// witness renders how the hot path reaches fn: the root alone when fn is
// itself marked, else the call chain from its witness root.
func witness(fn *types.Func, roots map[*types.Func]bool, pred map[*types.Func]*types.Func) string {
	var names []string
	for cur, hops := fn, 0; ; hops++ {
		names = append(names, shortFuncName(cur))
		p, ok := pred[cur]
		if !ok || p == nil || hops > 32 {
			break
		}
		cur = p
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	if len(names) == 1 {
		return "in //scap:hotpath " + names[0]
	}
	return "reached from //scap:hotpath " + strings.Join(names, " → ")
}

// blockSite is one blocking construct found in a function body.
type blockSite struct {
	pos  token.Pos
	what string
}

// blockingSites scans n's body for blocking constructs. Function literals
// launched with "go" are skipped (their bodies run on the new goroutine);
// other literals are scanned as part of the enclosing function, matching
// how the call graph attributes them.
func blockingSites(n *funcNode) []blockSite {
	if n.decl.Body == nil {
		return nil
	}
	info := n.pkg.Info
	goLit := make(map[*ast.FuncLit]bool)
	selectComm := make(map[ast.Node]bool)
	ast.Inspect(n.decl.Body, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.GoStmt:
			if fl, ok := unparen(x.Call.Fun).(*ast.FuncLit); ok {
				goLit[fl] = true
			}
		case *ast.SelectStmt:
			// A select's case operations are attempted, not committed:
			// the select itself is the blocking (or not) construct, so
			// its comm statements and their channel ops are exempt from
			// individual send/receive flagging.
			for _, cl := range x.Body.List {
				cc, ok := cl.(*ast.CommClause)
				if !ok || cc.Comm == nil {
					continue
				}
				selectComm[cc.Comm] = true
				ast.Inspect(cc.Comm, func(inner ast.Node) bool {
					switch y := inner.(type) {
					case *ast.SendStmt:
						selectComm[y] = true
					case *ast.UnaryExpr:
						if y.Op == token.ARROW {
							selectComm[y] = true
						}
					}
					return true
				})
			}
		}
		return true
	})
	var sites []blockSite
	add := func(pos token.Pos, what string) {
		sites = append(sites, blockSite{pos: pos, what: what})
	}
	ast.Inspect(n.decl.Body, func(nd ast.Node) bool {
		if selectComm[nd] {
			switch nd.(type) {
			case *ast.SendStmt, *ast.UnaryExpr:
				return true // channel op owned by an enclosing select
			}
		}
		switch x := nd.(type) {
		case *ast.FuncLit:
			if goLit[x] {
				return false
			}
		case *ast.SendStmt:
			add(x.Arrow, "channel send")
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				add(x.OpPos, "channel receive")
			}
		case *ast.SelectStmt:
			if !selectHasDefault(x) {
				add(x.Select, "blocking select (no default case)")
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					add(x.For, "range over channel")
				}
			}
		case *ast.CallExpr:
			fn := calleeOf(info, x.Fun)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if what, listed := blockingFuncs[fn.FullName()]; listed {
				if what != "" {
					add(x.Lparen, what)
				}
				return true
			}
			if blockingPkgs[fn.Pkg().Path()] {
				add(x.Lparen, fmt.Sprintf("call into %s (syscall or I/O): %s.%s",
					fn.Pkg().Path(), fn.Pkg().Name(), fn.Name()))
			}
		}
		return true
	})
	return sites
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
