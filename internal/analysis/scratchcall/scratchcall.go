// Package scratchcall classifies call expressions against the arena
// contracts: which calls borrow recycled scratch buffers, which calls
// release them, and which calls carve chunk storage. The arenapair and
// noescape analyzers share these predicates so "what counts as a
// borrow" has exactly one definition.
//
// Classification is by method set shape, not import path: a borrow is
// a Get/GetZero call on a named type `Scratch` (any instantiation,
// pointer or value receiver), a release is a Put call on the same, and
// a carve is a Carve call on a named type `Chunk`. Matching by type
// name keeps the analyzers hermetically testable (testdata packages
// declare their own mini Scratch) while remaining precise on the real
// tree: the only type named Scratch in this module is
// internal/arena.Scratch, and method calls named Get/Put on other
// receivers — sync.Pool, Combiner, Map, Tree — never match because
// their receiver types are not named Scratch.
package scratchcall

import (
	"go/ast"
	"go/types"
)

// Kind classifies a call against the arena contracts.
type Kind int

const (
	// None: not an arena-relevant call.
	None Kind = iota
	// Borrow: Scratch.Get or Scratch.GetZero — hands out a recycled
	// buffer the caller must Put on every path.
	Borrow
	// Release: Scratch.Put — ends a borrow.
	Release
	// Carve: Chunk.Carve — hands out node storage slices owned by the
	// subtree being built (no Put exists; escape rules still apply).
	Carve
)

// isNamed reports whether t (after unaliasing and one pointer
// dereference) is a named or instantiated-generic type with the given
// name.
func isNamed(t types.Type, name string) bool {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == name
}

// Classify reports what call does under the arena contracts. For
// Borrow/Release/Carve calls, recv is the receiver expression (the x
// of x.Get(...)).
func Classify(info *types.Info, call *ast.CallExpr) (kind Kind, recv ast.Expr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return None, nil
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return None, nil
	}
	switch sel.Sel.Name {
	case "Get", "GetZero":
		if isNamed(tv.Type, "Scratch") {
			return Borrow, sel.X
		}
	case "Put":
		if isNamed(tv.Type, "Scratch") {
			return Release, sel.X
		}
	case "Carve":
		if isNamed(tv.Type, "Chunk") {
			return Carve, sel.X
		}
	}
	return None, nil
}

// Callee resolves the called function or method object of call, nil
// when the callee is dynamic (a function value) or a type conversion.
func Callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if o := info.Uses[fun]; o != nil {
			if _, ok := o.(*types.Func); ok {
				return o
			}
		}
	case *ast.SelectorExpr:
		if selInfo, ok := info.Selections[fun]; ok {
			return selInfo.Obj()
		}
		// Package-qualified call: pkg.F.
		if o := info.Uses[fun.Sel]; o != nil {
			if _, ok := o.(*types.Func); ok {
				return o
			}
		}
	}
	return nil
}

// RootIdent unwraps slicing, indexing, and parens down to the base
// identifier of an expression: buf, buf[:n], (buf), buf[1:] all root
// at buf. Returns nil when the expression does not root at a plain
// identifier.
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// Var resolves the *types.Var an identifier denotes (through Uses or
// Defs), nil for non-variables.
func Var(info *types.Info, id *ast.Ident) *types.Var {
	o := info.Uses[id]
	if o == nil {
		o = info.Defs[id]
	}
	v, _ := o.(*types.Var)
	return v
}
