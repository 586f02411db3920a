package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AtomicField enforces atomic-access discipline whole-program:
//
//   - A struct field whose address is passed to a sync/atomic function
//     anywhere in the module must never be read or written plainly (or
//     have its address escape outside an atomic call) anywhere else —
//     the pre-PR-1 Engine.Stats data race, caught statically.
//   - A field reached by 64-bit atomic functions must sit at an 8-byte
//     offset within its struct, or atomic ops fault/tear on 32-bit
//     platforms (typed atomic.Int64/Uint64 self-align and are exempt).
//   - Every field of a //scap:atomics struct must be a sync/atomic type,
//     blank padding, another //scap:atomics struct, or an array/slice of
//     such — so "all access to this struct is atomic" stays true as
//     fields are added.
var AtomicField = &Analyzer{
	Name:       "atomicfield",
	Doc:        "fields accessed via sync/atomic must never be accessed plainly; 64-bit atomics must be 8-byte aligned; //scap:atomics structs stay all-atomic",
	RunProgram: runAtomicField,
}

// atomicUse records how a field is touched atomically.
type atomicUse struct {
	funcName string // e.g. "LoadUint64"
	pos      token.Position
	is64     bool
}

func runAtomicField(prog *Program) []Diagnostic {
	var diags []Diagnostic

	// Pass 1: fields whose address feeds a sync/atomic function, and the
	// selector expressions consumed by those calls (exempt from pass 2).
	atomicFields := make(map[*types.Var]atomicUse)
	consumed := make(map[*ast.SelectorExpr]bool)
	for _, p := range prog.Pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(nd ast.Node) bool {
				call, ok := nd.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeOf(p.Info, call.Fun)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
					return true
				}
				for _, arg := range call.Args {
					un, ok := unparen(arg).(*ast.UnaryExpr)
					if !ok || un.Op != token.AND {
						continue
					}
					sel, ok := unparen(un.X).(*ast.SelectorExpr)
					if !ok {
						continue
					}
					fv := fieldOf(p.Info, sel)
					if fv == nil {
						continue
					}
					consumed[sel] = true
					if _, seen := atomicFields[fv]; !seen {
						atomicFields[fv] = atomicUse{
							funcName: fn.Name(),
							pos:      p.Fset.Position(call.Pos()),
							is64:     strings.Contains(fn.Name(), "64"),
						}
					} else if strings.Contains(fn.Name(), "64") {
						u := atomicFields[fv]
						u.is64 = true
						atomicFields[fv] = u
					}
				}
				return true
			})
		}
	}

	// Pass 2: every other access to those fields is a violation. Classify
	// the access for the message: write, address escape, or read.
	for _, p := range prog.Pkgs {
		for _, f := range p.Files {
			writes, addressed := accessKinds(f)
			ast.Inspect(f, func(nd ast.Node) bool {
				sel, ok := nd.(*ast.SelectorExpr)
				if !ok || consumed[sel] {
					return true
				}
				fv := fieldOf(p.Info, sel)
				if fv == nil {
					return true
				}
				use, ok := atomicFields[fv]
				if !ok {
					return true
				}
				verb := "plain read of"
				switch {
				case writes[sel]:
					verb = "plain write to"
				case addressed[sel]:
					verb = "address of"
				}
				msg := fmt.Sprintf("%s field %s, which is accessed via sync/atomic (%s at %s)",
					verb, fv.Name(), use.funcName, shortPos(use.pos))
				if verb == "address of" {
					msg += "; the pointer escapes the atomic protocol"
				}
				diags = append(diags, Diagnostic{
					Pos:      p.Fset.Position(sel.Pos()),
					Analyzer: "atomicfield",
					Message:  msg,
				})
				return true
			})
		}
	}

	// Pass 3: 64-bit alignment of function-style atomic fields, checked
	// under 32-bit (386) layout where structs only guarantee 4-byte
	// alignment for 8-byte words.
	sizes := types.SizesFor("gc", "386")
	for _, p := range prog.Pkgs {
		for _, ns := range structTypes(p) {
			diags = append(diags, checkAlignment(p, ns, atomicFields, sizes)...)
		}
	}

	// Pass 4: //scap:atomics struct shape. The marked set spans the whole
	// program so a struct may nest a marked struct from another package.
	marked := make(map[types.Object]bool)
	for _, p := range prog.Pkgs {
		for _, ns := range structTypes(p) {
			if _, ok := structMarkerArgs(p, ns, atomicsMarker); ok {
				marked[p.Info.Defs[ns.Spec.Name]] = true
			}
		}
	}
	for _, p := range prog.Pkgs {
		for _, ns := range structTypes(p) {
			if marked[p.Info.Defs[ns.Spec.Name]] {
				diags = append(diags, checkAtomicsShape(p, ns, marked)...)
			}
		}
	}
	return diags
}

// fieldOf resolves sel to the struct field it selects, or nil.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	return nil
}

// accessKinds classifies selector expressions of f: assignment/inc-dec
// targets, and operands of & outside the atomic calls handled in pass 1.
func accessKinds(f *ast.File) (writes, addressed map[*ast.SelectorExpr]bool) {
	writes = make(map[*ast.SelectorExpr]bool)
	addressed = make(map[*ast.SelectorExpr]bool)
	mark := func(e ast.Expr, m map[*ast.SelectorExpr]bool) {
		if sel, ok := unparen(e).(*ast.SelectorExpr); ok {
			m[sel] = true
		}
	}
	ast.Inspect(f, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				mark(lhs, writes)
			}
		case *ast.IncDecStmt:
			mark(x.X, writes)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				mark(x.X, addressed)
			}
		}
		return true
	})
	return writes, addressed
}

// checkAlignment flags 64-bit atomically accessed basic fields of ns that
// land on a non-8-byte offset under 32-bit layout.
func checkAlignment(p *Package, ns namedStruct, atomicFields map[*types.Var]atomicUse, sizes types.Sizes) []Diagnostic {
	if sizes == nil {
		return nil
	}
	obj, ok := p.Info.Defs[ns.Spec.Name]
	if !ok || obj == nil {
		return nil
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok || st.NumFields() == 0 {
		return nil
	}
	fields := make([]*types.Var, st.NumFields())
	for i := range fields {
		fields[i] = st.Field(i)
	}
	offsets := sizes.Offsetsof(fields)
	var diags []Diagnostic
	for i, fv := range fields {
		use, ok := atomicFields[fv]
		if !ok || !use.is64 {
			continue
		}
		b, ok := fv.Type().Underlying().(*types.Basic)
		if !ok {
			continue
		}
		switch b.Kind() {
		case types.Int64, types.Uint64, types.Float64:
		default:
			continue
		}
		if offsets[i]%8 != 0 {
			diags = append(diags, Diagnostic{
				Pos:      p.Fset.Position(fv.Pos()),
				Analyzer: "atomicfield",
				Message: fmt.Sprintf("field %s is accessed with 64-bit sync/atomic functions (%s) but is not 8-byte aligned on 32-bit platforms (offset %d in %s); move it first or pad, or use atomic.%s",
					fv.Name(), use.funcName, offsets[i], ns.Name, typedAtomicFor(b.Kind())),
			})
		}
	}
	return diags
}

func typedAtomicFor(k types.BasicKind) string {
	if k == types.Uint64 {
		return "Uint64"
	}
	return "Int64"
}

// checkAtomicsShape verifies every field of a //scap:atomics struct is
// safe for unsynchronized concurrent access.
func checkAtomicsShape(p *Package, ns namedStruct, marked map[types.Object]bool) []Diagnostic {
	var diags []Diagnostic
	for _, field := range ns.Struct.Fields.List {
		names := field.Names
		if len(names) == 0 {
			names = []*ast.Ident{{Name: "(embedded)", NamePos: field.Pos()}}
		}
		for _, name := range names {
			if name.Name == "_" {
				continue // padding
			}
			t := p.Info.TypeOf(field.Type)
			if t == nil || atomicsShapeOK(t, marked) {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos:      p.Fset.Position(name.Pos()),
				Analyzer: "atomicfield",
				Message: fmt.Sprintf("field %s of //scap:atomics struct %s has non-atomic type %s (use a sync/atomic type, blank padding, or a nested //scap:atomics struct)",
					name.Name, ns.Name, t),
			})
		}
	}
	return diags
}

// atomicsShapeOK reports whether t is allowed inside a //scap:atomics
// struct: a sync/atomic named type, a struct also marked //scap:atomics,
// or an array/slice of an allowed type.
func atomicsShapeOK(t types.Type, marked map[types.Object]bool) bool {
	switch tt := t.(type) {
	case *types.Named:
		obj := tt.Obj()
		return marked[obj] || obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
	case *types.Array:
		// Blank-named padding arrays are filtered before this; a named
		// field of array type must hold allowed elements.
		return atomicsShapeOK(tt.Elem(), marked)
	case *types.Slice:
		return atomicsShapeOK(tt.Elem(), marked)
	}
	return false
}

// shortPos renders a cross-reference position compactly.
func shortPos(pos token.Position) string {
	name := pos.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, pos.Line)
}
