// Package arenapair defines an analyzer enforcing the arena borrow
// contract: every Scratch.Get/GetZero must reach a matching Put on
// every path out of the borrowing function — fall-through, early
// return, and panic edges alike.
//
// The check is flow-sensitive over the statement structure: borrows
// assigned to local variables enter a live set, Put calls (and calls
// to //pbist:releases-annotated wrappers) remove them, defers satisfy
// every subsequent exit, and branch arms are analyzed independently
// and merged on fall-through. A borrow still live at a return, a
// panic, or the end of the function body is reported once, at the
// Get that created it. A Put of a borrow that every path to it has
// already returned — explicitly, or by a defer that will run again at
// exit — is reported at that Put: the buffer would enter the free list
// twice and be lent to two borrowers at once.
//
// Deliberate ownership transfer — borrows that are stored, returned,
// or otherwise handed off by design — is declared with //pbist:owner,
// either on the borrowing line (or the line above it) or in the
// enclosing function's doc comment, which covers every borrow in that
// function.
package arenapair

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/annot"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/scratchcall"
)

// Analyzer is the arenapair check.
var Analyzer = &framework.Analyzer{
	Name: "arenapair",
	Doc:  "check that every Scratch.Get/GetZero is matched by a Put on all paths",
	Run:  run,
}

// borrow is one live Get: shared by every branch-local copy of the
// environment so reporting and defer-satisfaction dedupe globally. An
// explicit Put replaces it, in the environment of the path that ran
// the Put only, with a released record that catches a second Put.
type borrow struct {
	v        *types.Var
	pos      token.Pos // the Get call, where leaks are reported
	deferred bool      // a defer releases this borrow on every exit
	released bool      // an explicit Put already returned it on this path
	reported bool
}

// env maps borrowed variables to their borrow records, live or
// released. Copies share the *borrow values.
type env map[*types.Var]*borrow

func (e env) clone() env {
	c := make(env, len(e))
	for k, v := range e {
		c[k] = v
	}
	return c
}

// checker carries per-function analysis state.
type checker struct {
	pass      *framework.Pass
	af        *annot.File
	releasers map[types.Object]bool // //pbist:releases functions
	funcOwner bool                  // enclosing FuncDecl is //pbist:owner
}

func run(pass *framework.Pass) (any, error) {
	// First pass: collect //pbist:releases functions and report unknown
	// annotation verbs, per file.
	releasers := make(map[types.Object]bool)
	annots := make(map[*ast.File]*annot.File, len(pass.Files))
	for _, file := range pass.Files {
		af := annot.NewFile(pass.Fset, file)
		annots[file] = af
		for _, a := range af.Unknown() {
			pass.Reportf(a.Pos, "unknown pbist annotation %q (known: owner, releases, noalloc, combiner, guardedby)", a.Verb)
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !annot.InGroup(fd.Doc, annot.Releases) {
				continue
			}
			if o := pass.TypesInfo.Defs[fd.Name]; o != nil {
				releasers[o] = true
			}
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c := &checker{
				pass:      pass,
				af:        annots[file],
				releasers: releasers,
				funcOwner: annot.InGroup(fd.Doc, annot.Owner),
			}
			c.checkBody(fd.Body)
		}
	}
	return nil, nil
}

// checkBody analyzes one function (or function-literal) body as an
// independent borrow scope.
func (c *checker) checkBody(body *ast.BlockStmt) {
	e := make(env)
	terminated := c.walk(body.List, e)
	if !terminated {
		c.reportLive(e)
	}
}

// reportLive flags every live, non-deferred borrow in e, once.
func (c *checker) reportLive(e env) {
	for _, b := range e {
		if b.deferred || b.released || b.reported {
			continue
		}
		b.reported = true
		c.pass.Reportf(b.pos, "scratch borrow of %s is not returned on this path; Put it or mark the borrow //pbist:owner", b.v.Name())
	}
}

// walk analyzes a statement sequence, mutating e in place, and reports
// whether every path through the sequence terminates (returns, panics,
// or branches away) rather than falling through.
func (c *checker) walk(stmts []ast.Stmt, e env) bool {
	for _, s := range stmts {
		if c.stmt(s, e) {
			return true
		}
	}
	return false
}

// stmt analyzes one statement; the return value reports termination.
func (c *checker) stmt(s ast.Stmt, e env) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		c.assign(s, e)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					c.valueSpec(vs, e)
				}
			}
		}
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if c.isPanic(call) {
				c.scanExpr(call, e)
				c.reportLive(e)
				return true
			}
			if c.releaseCall(call, e, false) {
				return false
			}
		}
		c.scanExpr(s.X, e)
	case *ast.DeferStmt:
		c.deferStmt(s, e)
	case *ast.GoStmt:
		// The goroutine body is its own borrow scope; releases inside it
		// happen asynchronously and do not satisfy this function's
		// obligations (noescape separately flags captured borrows).
		c.scanExpr(s.Call, e)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.scanExpr(r, e)
		}
		c.reportLive(e)
		return true
	case *ast.BranchStmt:
		// break/continue/goto/fallthrough: the live set does not flow to
		// the statement after this one. Loop analysis handles the borrow
		// balance of the enclosing body conservatively.
		return true
	case *ast.IfStmt:
		return c.ifStmt(s, e)
	case *ast.ForStmt:
		if s.Init != nil {
			c.stmt(s.Init, e)
		}
		if s.Cond != nil {
			c.scanExpr(s.Cond, e)
		}
		c.loopBody(s.Body, e)
		if s.Post != nil {
			c.stmt(s.Post, e)
		}
	case *ast.RangeStmt:
		c.scanExpr(s.X, e)
		c.loopBody(s.Body, e)
	case *ast.SwitchStmt:
		return c.switchStmt(s.Init, s.Tag, s.Body, e)
	case *ast.TypeSwitchStmt:
		return c.switchStmt(s.Init, nil, s.Body, e)
	case *ast.SelectStmt:
		return c.switchStmt(nil, nil, s.Body, e)
	case *ast.BlockStmt:
		return c.walk(s.List, e)
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, e)
	case *ast.SendStmt:
		c.scanExpr(s.Chan, e)
		c.scanExpr(s.Value, e)
	case *ast.IncDecStmt:
		c.scanExpr(s.X, e)
	}
	return false
}

// assign handles borrow creation (x := s.Get(n)) and overwrite leaks.
func (c *checker) assign(s *ast.AssignStmt, e env) {
	if len(s.Lhs) == len(s.Rhs) {
		for i, rhs := range s.Rhs {
			c.bindOne(s.Lhs[i], rhs, e)
		}
		return
	}
	// Multi-value form: a Scratch borrow returns one value, so no
	// binding can originate here; just scan for misplaced borrows.
	for _, rhs := range s.Rhs {
		c.scanExpr(rhs, e)
	}
}

// valueSpec handles var declarations with initializers.
func (c *checker) valueSpec(vs *ast.ValueSpec, e env) {
	if len(vs.Names) == len(vs.Values) {
		for i, v := range vs.Values {
			c.bindOne(vs.Names[i], v, e)
		}
		return
	}
	for _, v := range vs.Values {
		c.scanExpr(v, e)
	}
}

// bindOne processes one lhs = rhs pair. A borrow call bound to a plain
// variable starts tracking; bound to anything else (a field, an index
// expression) it escapes immediately and needs //pbist:owner. A
// tracked variable overwritten while live leaks its old borrow.
func (c *checker) bindOne(lhs, rhs ast.Expr, e env) {
	call, isCall := ast.Unparen(rhs).(*ast.CallExpr)
	var kind scratchcall.Kind
	if isCall {
		kind, _ = scratchcall.Classify(c.pass.TypesInfo, call)
	}
	if kind != scratchcall.Borrow {
		c.scanExpr(rhs, e)
		// A reassignment derived from the variable itself — buf =
		// buf[:0], buf = append(buf, x) — keeps the same borrow alive;
		// only a value unrelated to the borrow drops the buffer.
		if !mentions(c.pass.TypesInfo, rhs, lhsVar(c.pass.TypesInfo, lhs)) {
			c.killOrLeak(lhs, e)
		}
		return
	}
	c.scanExpr(call.Fun, e) // receiver may itself misuse a borrow
	for _, a := range call.Args {
		c.scanExpr(a, e)
	}
	if c.ownerAt(call.Pos()) {
		c.killOrLeak(lhs, e)
		return
	}
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		c.pass.Reportf(call.Pos(), "scratch borrow is not bound to a variable; its Put cannot be verified (mark //pbist:owner if ownership transfers)")
		return
	}
	v := scratchcall.Var(c.pass.TypesInfo, id)
	if v == nil {
		return
	}
	c.killOrLeak(lhs, e)
	e[v] = &borrow{v: v, pos: call.Pos()}
}

// lhsVar resolves an assignment target to its variable, nil when the
// target is not a plain identifier.
func lhsVar(info *types.Info, lhs ast.Expr) *types.Var {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return nil
	}
	return scratchcall.Var(info, id)
}

// mentions reports whether v occurs anywhere in expression x.
func mentions(info *types.Info, x ast.Expr, v *types.Var) bool {
	if v == nil || x == nil {
		return false
	}
	found := false
	ast.Inspect(x, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && scratchcall.Var(info, id) == v {
			found = true
		}
		return !found
	})
	return found
}

// killOrLeak handles an assignment target that may hold a live borrow:
// overwriting a tracked variable without Put leaks the old buffer.
func (c *checker) killOrLeak(lhs ast.Expr, e env) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return
	}
	v := scratchcall.Var(c.pass.TypesInfo, id)
	if v == nil {
		return
	}
	b, live := e[v]
	if !live {
		return
	}
	delete(e, v)
	if b.deferred || b.released || b.reported || c.ownerAt(lhs.Pos()) {
		return
	}
	b.reported = true
	c.pass.Reportf(lhs.Pos(), "scratch borrow of %s is overwritten before Put; the borrowed buffer leaks", v.Name())
}

// releaseCall handles Put and //pbist:releases calls, killing the
// borrows of their (root-identifier) arguments and receiver. Reports
// whether the call released anything worth skipping the generic scan
// for. asDefer marks the borrows satisfied-on-all-exits instead of
// killed.
func (c *checker) releaseCall(call *ast.CallExpr, e env, asDefer bool) bool {
	kind, _ := scratchcall.Classify(c.pass.TypesInfo, call)
	releasing := kind == scratchcall.Release
	if !releasing {
		if o := scratchcall.Callee(c.pass.TypesInfo, call); o != nil {
			if c.releasers[o] {
				releasing = true
			} else if f, ok := o.(*types.Func); ok && c.releasers[f.Origin()] {
				// Methods on instantiated generic receivers are fresh
				// objects; Origin maps back to the annotated declaration.
				releasing = true
			}
		}
	}
	if !releasing {
		return false
	}
	for _, a := range call.Args {
		id := scratchcall.RootIdent(a)
		if id == nil {
			continue
		}
		v := scratchcall.Var(c.pass.TypesInfo, id)
		if v == nil {
			continue
		}
		b, ok := e[v]
		switch {
		case !ok:
		case b.released || b.deferred:
			c.pass.Reportf(call.Pos(), "scratch borrow of %s is returned twice; it was already returned on every path here (explicitly or by a defer)", v.Name())
		case asDefer:
			b.deferred = true
		default:
			e[v] = &borrow{v: v, pos: call.Pos(), released: true}
		}
	}
	return true
}

// deferStmt satisfies borrows released by the deferred call — either a
// direct defer s.Put(buf) or a defer func() { ... } whose body
// releases borrows of the enclosing scope.
func (c *checker) deferStmt(s *ast.DeferStmt, e env) {
	if c.releaseCall(s.Call, e, true) {
		return
	}
	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
		// Releases anywhere inside the deferred closure count: the
		// closure runs on every exit, so conditional structure inside it
		// is its own concern. The body is also checked as a scope of its
		// own (for borrows it creates) by scanExpr below.
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				c.releaseCall(call, e, true)
			}
			return true
		})
	}
	c.scanExpr(s.Call, e)
}

// ifStmt analyzes both arms independently and merges fall-throughs.
func (c *checker) ifStmt(s *ast.IfStmt, e env) bool {
	if s.Init != nil {
		c.stmt(s.Init, e)
	}
	c.scanExpr(s.Cond, e)
	thenEnv := e.clone()
	thenTerm := c.walk(s.Body.List, thenEnv)
	elseEnv := e.clone()
	elseTerm := false
	if s.Else != nil {
		elseTerm = c.stmt(s.Else, elseEnv)
	}
	merge(e, thenEnv, thenTerm, elseEnv, elseTerm)
	return thenTerm && elseTerm
}

// switchStmt analyzes each case clause independently. A switch with no
// default may match nothing, so the pre-switch environment is always a
// merge input; termination therefore requires a default (or, for
// select, is never assumed — a blocked select that never proceeds is a
// liveness bug out of scope here).
func (c *checker) switchStmt(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, e env) bool {
	if init != nil {
		c.stmt(init, e)
	}
	if tag != nil {
		c.scanExpr(tag, e)
	}
	var arms []env
	var terms []bool
	hasDefault := false
	for _, cl := range body.List {
		armEnv := e.clone()
		var stmts []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			for _, x := range cl.List {
				c.scanExpr(x, armEnv)
			}
			stmts = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			} else {
				c.stmt(cl.Comm, armEnv)
			}
			stmts = cl.Body
		}
		terms = append(terms, c.walk(stmts, armEnv))
		arms = append(arms, armEnv)
	}
	allTerm := hasDefault && len(arms) > 0
	var open []env
	for i, arm := range arms {
		if !terms[i] {
			allTerm = false
			open = append(open, arm)
		}
	}
	if !hasDefault {
		open = append(open, e)
		allTerm = false
	}
	replace(e, join(open))
	return allTerm
}

// loopBody analyzes a loop body once: borrows created inside the body
// must be balanced within one iteration (a borrow surviving the body
// would compound across iterations), and borrows from outside killed
// inside are conservatively treated as killed (a loop that may run
// zero times under-reports rather than false-positives).
func (c *checker) loopBody(body *ast.BlockStmt, e env) {
	inner := e.clone()
	c.walk(body.List, inner)
	for v, b := range inner {
		if _, outer := e[v]; outer {
			continue
		}
		if b.deferred || b.released || b.reported {
			continue
		}
		b.reported = true
		c.pass.Reportf(b.pos, "scratch borrow of %s is not returned within the loop iteration that created it", b.v.Name())
	}
	for v := range e {
		if b, still := inner[v]; !still || b.released {
			delete(e, v)
		}
	}
}

// merge replaces e with the join of the non-terminated arms; when
// both arms terminate, e's contents are irrelevant to the (dead) code
// after the branch.
func merge(e, thenEnv env, thenTerm bool, elseEnv env, elseTerm bool) {
	var arms []env
	if !thenTerm {
		arms = append(arms, thenEnv)
	}
	if !elseTerm {
		arms = append(arms, elseEnv)
	}
	replace(e, join(arms))
}

// join merges the environments of the arms that fall through to one
// statement: a borrow live on any arm stays live, and a released
// record survives only when every arm released the borrow, so a
// later Put is reported as a second one only when it is one on every
// path.
func join(arms []env) env {
	merged := make(env)
	for _, arm := range arms {
		for k, b := range arm {
			if !b.released {
				merged[k] = b
			}
		}
	}
	if len(arms) == 0 {
		return merged
	}
	for k, b := range arms[0] {
		if !b.released || merged[k] != nil {
			continue
		}
		everyArm := true
		for _, arm := range arms[1:] {
			if o, ok := arm[k]; !ok || !o.released {
				everyArm = false
				break
			}
		}
		if everyArm {
			merged[k] = b
		}
	}
	return merged
}

func replace(e, with env) {
	for k := range e {
		delete(e, k)
	}
	for k, v := range with {
		e[k] = v
	}
}

// scanExpr visits an expression for (a) borrow calls in non-binding
// positions — a Get whose result is passed straight into another call
// or expression can never be verified, so it must be owner-marked —
// and (b) function literals, whose bodies are independent borrow
// scopes (with the subtlety that assignments inside a literal to
// variables of the enclosing function are analyzed in the literal's
// own scope).
func (c *checker) scanExpr(x ast.Expr, e env) {
	if x == nil {
		return
	}
	ast.Inspect(x, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			sub := &checker{pass: c.pass, af: c.af, releasers: c.releasers, funcOwner: c.funcOwner}
			sub.checkBody(n.Body)
			return false
		case *ast.CallExpr:
			kind, _ := scratchcall.Classify(c.pass.TypesInfo, n)
			if kind == scratchcall.Borrow && !c.ownerAt(n.Pos()) {
				c.pass.Reportf(n.Pos(), "scratch borrow is not bound to a variable; its Put cannot be verified (mark //pbist:owner if ownership transfers)")
			}
		}
		return true
	})
}

// isPanic reports whether call is the builtin panic.
func (c *checker) isPanic(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// ownerAt reports whether a borrow at pos is owner-marked, either on
// its line (or the line above) or at the enclosing function level.
func (c *checker) ownerAt(pos token.Pos) bool {
	return c.funcOwner || c.af.MarkedAt(pos, annot.Owner)
}
