// Package combinerguard defines an analyzer enforcing the confinement
// of flat-combining state: a struct field annotated
// //pbist:guardedby combiner may only be accessed from functions
// annotated //pbist:combiner — the functions that run while their
// goroutine holds the combiner role, which one client at a time does.
//
// The rules are deliberately strict:
//
//   - Function literals do NOT inherit the combiner context of their
//     enclosing function. An epoch function hands closures to the
//     worker pool, and those closures run on pool goroutines; a
//     closure needing combiner-confined state must receive it through
//     a local copied before the closure is created, which makes the
//     handoff visible at the confinement boundary.
//
//   - Keyed composite literals may initialize guarded fields freely:
//     construction happens before the value is published to any
//     goroutine, and struct-literal keys are field names, not
//     accesses.
//
// The guard vocabulary is closed: //pbist:guardedby with any argument
// other than "combiner" is reported, so a typo cannot unguard a field.
package combinerguard

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/annot"
	"repro/internal/analysis/framework"
)

// Analyzer is the combinerguard check.
var Analyzer = &framework.Analyzer{
	Name: "combinerguard",
	Doc:  "check that //pbist:guardedby combiner fields are only accessed from //pbist:combiner functions",
	Run:  run,
}

func run(pass *framework.Pass) (any, error) {
	guarded := collectGuardedFields(pass)
	if len(guarded) == 0 {
		return nil, nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			combiner := annot.InGroup(fd.Doc, annot.Combiner)
			checkAccesses(pass, guarded, fd.Body, combiner)
		}
	}
	return nil, nil
}

// collectGuardedFields finds every struct field annotated
// //pbist:guardedby combiner, validating the guard name.
func collectGuardedFields(pass *framework.Pass) map[types.Object]bool {
	guarded := make(map[types.Object]bool)
	mark := func(field *ast.Field, doc *ast.CommentGroup) {
		arg, ok := annot.GroupArg(doc, annot.GuardedBy)
		if !ok {
			return
		}
		if arg != "combiner" {
			pass.Reportf(field.Pos(), "unknown guard %q in //pbist:guardedby (only \"combiner\" is defined)", arg)
			return
		}
		for _, name := range field.Names {
			if o := pass.TypesInfo.Defs[name]; o != nil {
				guarded[o] = true
			}
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mark(field, field.Doc)
				mark(field, field.Comment)
			}
			return true
		})
	}
	return guarded
}

// checkAccesses reports guarded-field selections outside combiner
// context. Function literals reset the context to non-combiner.
func checkAccesses(pass *framework.Pass, guarded map[types.Object]bool, body *ast.BlockStmt, combiner bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkAccesses(pass, guarded, n.Body, false)
			return false
		case *ast.SelectorExpr:
			sel, ok := pass.TypesInfo.Selections[n]
			if !ok || sel.Kind() != types.FieldVal {
				return true
			}
			fv, ok := sel.Obj().(*types.Var)
			if !ok {
				return true
			}
			// Instantiated generic types get fresh field objects; Origin
			// maps them back to the annotated declaration.
			if !guarded[fv] && !guarded[fv.Origin()] {
				return true
			}
			if !combiner {
				pass.Reportf(n.Sel.Pos(), "combiner-confined field %s accessed outside a //pbist:combiner function", n.Sel.Name)
			}
		}
		return true
	})
}
