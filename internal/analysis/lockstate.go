package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// This file is the shared lock-state model behind the locked, guardedby
// and lockorder analyzers: lexical Lock/Unlock event replay per function
// body, canonical lock identities, and the generalized `// locked:`
// annotation grammar. See DESIGN.md section 15.
//
// Locks are named two ways:
//
//   - by expression, the source text of the mutex operand ("ps.mu",
//     "regMu") — instance-precise within one function body;
//   - by identity, a canonical cross-package string — "pkg.Type.field"
//     for a mutex struct field (e.g. "milp.solver.mu") or "pkg.var"
//     for a package-level mutex (e.g. "locked.regMu" in the analyzer
//     fixtures). Identity names the lock *class*, not the instance.
//
// RLock/RUnlock are treated like Lock/Unlock: the analyzers check that
// *a* hold exists, not its mode. The replay is lexical — conditionals
// and loops are not path-sensitive — matching the discipline the
// parallel pool has relied on since PR 5 (DESIGN.md section 11).

// heldLock is one lock known to be held: by expression, by identity, or
// both (either string may be empty when unresolvable).
type heldLock struct {
	expr string
	id   string
}

// lockEvent is one Lock/RLock (acquire) or non-deferred Unlock/RUnlock
// (release) call in a function body.
type lockEvent struct {
	pos     token.Pos
	expr    string
	id      string
	acquire bool
	rlock   bool
}

// lockScope is one independently analyzed function body: a FuncDecl's
// body, or the body of a function literal launched by a `go` statement
// (which starts with nothing held, whatever the spawner holds).
// Non-goroutine literals stay part of their enclosing scope: a
// sort.Slice comparator or a once.Do body runs on the caller's
// goroutine and inherits its lexical lock state.
type lockScope struct {
	decl  *ast.FuncDecl  // enclosing declaration (nil for orphan literals)
	body  *ast.BlockStmt // the scope's body
	goLit bool           // body of a go-statement function literal

	ann    []heldLock              // preconditions from `// locked:` annotations
	events []lockEvent             // lexical lock events, position-ordered
	skip   map[*ast.BlockStmt]bool // nested go-literal bodies, excluded
}

// collectLockScopes builds the scope list for one package: every
// declared function body plus every go-launched literal body, with
// go-literal bodies excluded from their parents.
func collectLockScopes(pass *Pass) []*lockScope {
	goBodies := map[*ast.BlockStmt]bool{}
	var scopes []*lockScope
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
					goBodies[lit.Body] = true
				}
				return true
			})
			scopes = append(scopes, &lockScope{decl: fd, body: fd.Body})
		}
	}
	var all []*lockScope
	for _, s := range scopes {
		s.skip = goBodies
		s.ann, _ = lockedAnnotations(pass, s.decl)
		s.events = scanLockEvents(pass, s.body, goBodies)
		all = append(all, s)
	}
	// Each go-literal body is its own scope with an empty initial held
	// set; its nested go literals are in goBodies too, so they exclude
	// each other correctly.
	for body := range goBodies {
		inner := map[*ast.BlockStmt]bool{}
		for b := range goBodies {
			if b != body {
				inner[b] = true
			}
		}
		all = append(all, &lockScope{
			body:   body,
			goLit:  true,
			skip:   inner,
			events: scanLockEvents(pass, body, inner),
		})
	}
	return all
}

// scanLockEvents collects the Lock/RLock/Unlock/RUnlock calls under
// root, position-ordered, skipping the excluded bodies. Deferred
// unlocks are not release events: defer mu.Unlock() runs at return,
// after everything in the body.
//
// Control flow is approximated by terminating-region compensation: a
// statement list ending in a return never falls through, so every lock
// event inside it is inverted at the region's end. That makes both
// early-exit idioms replay correctly —
//
//	mu.Lock()
//	if done { mu.Unlock(); return }   // fall-through still holds mu
//	...
//	if bad { mu.Lock(); x++; mu.Unlock(); return }
//	y++                               // fall-through never held mu
func scanLockEvents(pass *Pass, root ast.Node, skip map[*ast.BlockStmt]bool) []lockEvent {
	deferred := map[*ast.CallExpr]bool{}
	type region struct{ pos, end token.Pos }
	var regions []region
	walkSkipping(root, skip, func(n ast.Node) {
		if ds, ok := n.(*ast.DeferStmt); ok {
			deferred[ds.Call] = true
		}
		var stmts []ast.Stmt
		switch b := n.(type) {
		case *ast.BlockStmt:
			stmts = b.List
		case *ast.CaseClause:
			stmts = b.Body
		case *ast.CommClause:
			stmts = b.Body
		}
		if len(stmts) == 0 {
			return
		}
		if _, isReturn := stmts[len(stmts)-1].(*ast.ReturnStmt); isReturn {
			regions = append(regions, region{pos: stmts[0].Pos(), end: n.End()})
		}
	})

	var events []lockEvent
	walkSkipping(root, skip, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		switch sel.Sel.Name {
		case "Lock", "RLock":
			events = append(events, lockEvent{
				pos:     call.Pos(),
				expr:    types.ExprString(sel.X),
				id:      lockIdentity(pass, sel.X),
				acquire: true,
				rlock:   sel.Sel.Name == "RLock",
			})
		case "Unlock", "RUnlock":
			if !deferred[call] {
				events = append(events, lockEvent{
					pos:  call.Pos(),
					expr: types.ExprString(sel.X),
					id:   lockIdentity(pass, sel.X),
				})
			}
		}
	})
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	// Innermost regions first, so an outer region inverts the inner
	// region's compensations along with its real events.
	sort.Slice(regions, func(i, j int) bool {
		return regions[i].end-regions[i].pos < regions[j].end-regions[j].pos
	})
	for _, r := range regions {
		var comps []lockEvent
		for _, ev := range events {
			if ev.pos >= r.pos && ev.pos < r.end {
				inv := ev
				inv.pos = r.end
				inv.acquire = !ev.acquire
				comps = append(comps, inv)
			}
		}
		// Invert in reverse order: the last action undone first.
		for i := len(comps) - 1; i >= 0; i-- {
			events = append(events, comps[i])
		}
		sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	}
	return events
}

// walkSkipping inspects root, not descending into function-literal
// bodies listed in skip.
func walkSkipping(root ast.Node, skip map[*ast.BlockStmt]bool, fn func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && skip[lit.Body] {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// heldAt replays the scope's lock events and returns everything held at
// pos: the annotation preconditions plus every expression whose last
// lexical event before pos is an acquire.
func (s *lockScope) heldAt(pos token.Pos) []heldLock {
	held := append([]heldLock(nil), s.ann...)
	last := map[string]lockEvent{}
	var order []string
	for _, ev := range s.events {
		if ev.pos >= pos {
			break
		}
		if _, seen := last[ev.expr]; !seen {
			order = append(order, ev.expr)
		}
		last[ev.expr] = ev
	}
	for _, expr := range order {
		if ev := last[expr]; ev.acquire {
			held = append(held, heldLock{expr: ev.expr, id: ev.id})
		}
	}
	return held
}

// heldExprAt reports whether the lock named by expression expr is held
// at pos.
func (s *lockScope) heldExprAt(expr string, pos token.Pos) bool {
	for _, h := range s.heldAt(pos) {
		if h.expr == expr && expr != "" {
			return true
		}
	}
	return false
}

// heldIDAt reports whether some lock with canonical identity id is held
// at pos.
func (s *lockScope) heldIDAt(id string, pos token.Pos) bool {
	for _, h := range s.heldAt(pos) {
		if h.id == id && id != "" {
			return true
		}
	}
	return false
}

// lockIdentity canonicalizes the mutex operand expression: a struct
// field selection yields "pkg.Type.field", a package-level variable
// yields "pkg.var", anything else (locals, anonymous structs) yields "".
func lockIdentity(pass *Pass, e ast.Expr) string {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[x]; ok && sel.Kind() == types.FieldVal {
			named := namedOf(sel.Recv())
			if named == nil || named.Obj().Pkg() == nil {
				return ""
			}
			return pkgShort(named.Obj().Pkg()) + "." + named.Obj().Name() + "." + x.Sel.Name
		}
		// Qualified package-level var: pkg.Var.
		if v, ok := pass.TypesInfo.Uses[x.Sel].(*types.Var); ok && isPackageLevel(v) {
			return pkgShort(v.Pkg()) + "." + v.Name()
		}
	case *ast.Ident:
		if v, ok := pass.TypesInfo.Uses[x].(*types.Var); ok && isPackageLevel(v) {
			return pkgShort(v.Pkg()) + "." + v.Name()
		}
	}
	return ""
}

func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// pkgShort is the identity namespace for a package: the last element of
// its import path ("afp/internal/milp" → "milp").
func pkgShort(pkg *types.Package) string {
	return path.Base(pkg.Path())
}

// lockedReq is one parsed `// locked:` precondition on a function.
type lockedReq struct {
	kind   int    // one of the req* constants
	argIdx int    // parameter index, for reqParam
	path   string // member path after the binding ("mu"), for reqRecv/reqParam
	spec   string // the raw annotation text, for messages
	id     string // canonical identity when resolvable
}

const (
	reqRecv     = iota // "<recv>.<path>": the receiver's lock, instance-precise
	reqParam           // "<param>.<path>": a parameter's lock, instance-precise
	reqPkgVar          // "<var>": a package-level mutex in the same package
	reqIdentity        // "<pkg>.<Type>.<field>": any lock of that identity
)

// lockedAnnotations parses the `// locked:` lines in fd's doc comment
// into held-lock preconditions (for the function's own body) and
// structured requirements (for its call sites). The grammar, resolved
// against the declaration:
//
//	// locked: ps.mu          receiver form — call sites must hold <recv expr>.mu
//	// locked: b.mu           parameter form, when b names a parameter
//	// locked: regMu          package-var form, resolved in package scope
//	// locked: obs.Metrics.mu identity form — any lock of that identity
//
// Malformed specs are returned in diags rather than dropped.
func lockedAnnotations(pass *Pass, fd *ast.FuncDecl) ([]heldLock, []lockedReq) {
	if fd == nil || fd.Doc == nil {
		return nil, nil
	}
	var held []heldLock
	var reqs []lockedReq
	for _, c := range fd.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, "// locked:")
		if !ok {
			continue
		}
		spec := strings.TrimSpace(rest)
		if spec == "" {
			continue
		}
		req := resolveLockedSpec(pass, fd, spec)
		reqs = append(reqs, req)
		switch req.kind {
		case reqIdentity:
			held = append(held, heldLock{id: req.id})
		default:
			held = append(held, heldLock{expr: spec, id: req.id})
		}
	}
	return held, reqs
}

// resolveLockedSpec classifies one locked: spec against fd's receiver,
// parameters and package scope.
func resolveLockedSpec(pass *Pass, fd *ast.FuncDecl, spec string) lockedReq {
	first, path, hasDot := strings.Cut(spec, ".")
	if hasDot {
		if fd.Recv != nil && recvName(fd) == first {
			var id string
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
					id = fieldPathIdentity(recv.Type(), path)
				}
			}
			return lockedReq{kind: reqRecv, path: path, spec: spec, id: id}
		}
		if idx, t := paramByName(pass, fd, first); idx >= 0 {
			return lockedReq{kind: reqParam, argIdx: idx, path: path, spec: spec, id: fieldPathIdentity(t, path)}
		}
		// Not a binding of this function: a cross-package identity.
		return lockedReq{kind: reqIdentity, spec: spec, id: spec}
	}
	// Bare name: a package-level mutex variable.
	id := ""
	if obj, ok := pass.Pkg.Scope().Lookup(spec).(*types.Var); ok {
		id = pkgShort(obj.Pkg()) + "." + obj.Name()
	}
	return lockedReq{kind: reqPkgVar, spec: spec, id: id}
}

// paramByName finds the named parameter's index and type, or -1.
func paramByName(pass *Pass, fd *ast.FuncDecl, name string) (int, types.Type) {
	if fd.Type.Params == nil {
		return -1, nil
	}
	idx := 0
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			idx++
			continue
		}
		for _, n := range field.Names {
			if n.Name == name {
				if tv, ok := pass.TypesInfo.Types[field.Type]; ok {
					return idx, tv.Type
				}
				return idx, nil
			}
			idx++
		}
	}
	return -1, nil
}

// fieldPathIdentity walks a dotted field path from t and returns the
// canonical identity of the final field ("pkg.Type.field"), or "" when
// the walk fails.
func fieldPathIdentity(t types.Type, path string) string {
	segs := strings.Split(path, ".")
	cur := t
	for i, seg := range segs {
		named := namedOf(cur)
		if named == nil {
			return ""
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			return ""
		}
		var field *types.Var
		for j := 0; j < st.NumFields(); j++ {
			if st.Field(j).Name() == seg {
				field = st.Field(j)
				break
			}
		}
		if field == nil {
			return ""
		}
		if i == len(segs)-1 {
			if named.Obj().Pkg() == nil {
				return ""
			}
			return pkgShort(named.Obj().Pkg()) + "." + named.Obj().Name() + "." + seg
		}
		cur = field.Type()
	}
	return ""
}
