package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// GuardedBy enforces field-level mutex discipline: a struct field (or
// package-level variable) annotated with a trailing or doc comment
//
//	// guarded by mu
//
// may only be read or written while the named mutex is held. Three
// annotation forms (DESIGN.md section 15):
//
//	x int // guarded by mu                  sibling form: the mutex is a
//	                                        field of the same struct; an
//	                                        access v.x requires v.mu held
//	                                        (expression-precise — holding
//	                                        other.mu never covers v.x)
//	val *V // guarded by server.resultCache.mu
//	                                        external form: the guard is
//	                                        another type's lock, matched
//	                                        by canonical identity
//	var reg = map[...]B{} // guarded by regMu
//	                                        package-var form: reg may only
//	                                        be touched under the package
//	                                        mutex regMu
//
// Holding is established lexically per function body — Lock/RLock
// before the access with no non-deferred Unlock in between, or a
// `// locked:` precondition on the enclosing function. Two escape
// hatches keep initialization honest without suppressions: accesses
// through a local bound to a freshly constructed value (composite
// literal, new, or zero-value var) are exempt until the value first
// escapes the constructing function, and bodies of function literals
// passed to sync.Once.Do are exempt (Once provides the happens-before).
// Goroutine literals are separate scopes: they start with nothing held
// no matter what the spawner held at the go statement.
var GuardedBy = &Analyzer{
	Name: "guardedby",
	Doc:  "fields annotated '// guarded by mu' are only accessed with the named mutex held",
	Run:  runGuardedBy,
}

// guardedRe matches the annotation. The comment must start with the
// directive; extra prose is allowed after a semicolon ("// guarded by
// mu; drain flag"). Prose mentioning "guarded by" mid-sentence does
// not annotate.
var guardedRe = regexp.MustCompile(`^// guarded by ([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)\.?(?:; .*)?$`)

// guardSpec is one parsed annotation.
type guardSpec struct {
	external bool   // spec was dotted: match by identity
	lock     string // sibling field / package var name, or the identity
}

func runGuardedBy(pass *Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, scope := range collectLockScopes(pass) {
		checkGuardedScope(pass, scope, guards)
	}
	return nil
}

// collectGuards maps annotated field and variable objects to their
// guard specs. Struct fields are collected from every struct type
// declared in the package; package-level vars from their value specs.
func collectGuards(pass *Pass) map[*types.Var]guardSpec {
	guards := map[*types.Var]guardSpec{}
	addField := func(names []*ast.Ident, spec guardSpec) {
		for _, name := range names {
			if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
				guards[v] = spec
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
				spec, ok := guardAnnotation(field.Doc, field.Comment)
				if !ok {
					continue
				}
				if len(field.Names) == 0 {
					pass.Reportf(field.Pos(), "guarded by annotation on an embedded field is not supported")
					continue
				}
				addField(field.Names, spec)
			}
			return true
		})
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, s := range gd.Specs {
				vs, ok := s.(*ast.ValueSpec)
				if !ok {
					continue
				}
				spec, ok := guardAnnotation(vs.Doc, vs.Comment)
				if !ok {
					continue
				}
				addField(vs.Names, spec)
			}
		}
	}
	return guards
}

// guardAnnotation extracts the guard spec from a doc or trailing
// comment group.
func guardAnnotation(groups ...*ast.CommentGroup) (guardSpec, bool) {
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			m := guardedRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			return guardSpec{external: strings.Contains(m[1], "."), lock: m[1]}, true
		}
	}
	return guardSpec{}, false
}

// checkGuardedScope walks one scope and reports guarded accesses made
// without the guard held.
func checkGuardedScope(pass *Pass, scope *lockScope, guards map[*types.Var]guardSpec) {
	fresh := freshLocals(pass, scope)
	var walk func(n ast.Node, exempt bool)
	walk = func(node ast.Node, exempt bool) {
		ast.Inspect(node, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				if scope.skip[x.Body] {
					return false // a goroutine scope of its own
				}
				return true
			case *ast.CallExpr:
				if !exempt && isOnceDo(pass, x) {
					for _, arg := range x.Args {
						if lit, ok := arg.(*ast.FuncLit); ok && !scope.skip[lit.Body] {
							walk(lit.Body, true)
						}
					}
					// Still visit the call's non-literal parts normally.
					walk(x.Fun, exempt)
					for _, arg := range x.Args {
						if _, ok := arg.(*ast.FuncLit); !ok {
							walk(arg, exempt)
						}
					}
					return false
				}
				return true
			case *ast.SelectorExpr:
				sel, ok := pass.TypesInfo.Selections[x]
				if !ok || sel.Kind() != types.FieldVal {
					return true
				}
				field, ok := sel.Obj().(*types.Var)
				if !ok {
					return true
				}
				spec, guarded := guards[field]
				if !guarded || exempt {
					return true
				}
				checkFieldAccess(pass, scope, fresh, x, field, spec)
				return true
			case *ast.Ident:
				v, ok := pass.TypesInfo.Uses[x].(*types.Var)
				if !ok || !isPackageLevel(v) {
					return true
				}
				spec, guarded := guards[v]
				if !guarded || exempt {
					return true
				}
				if spec.external {
					if !scope.heldIDAt(spec.lock, x.Pos()) {
						pass.Reportf(x.Pos(), "access to %s requires a lock with identity %s held (guarded by annotation)", v.Name(), spec.lock)
					}
					return true
				}
				if !scope.heldExprAt(spec.lock, x.Pos()) && !scope.heldIDAt(pkgShort(v.Pkg())+"."+spec.lock, x.Pos()) {
					pass.Reportf(x.Pos(), "access to %s requires %s held (guarded by annotation)", v.Name(), spec.lock)
				}
				return true
			}
			return true
		})
	}
	walk(scope.body, false)
}

// checkFieldAccess validates one guarded field selection.
func checkFieldAccess(pass *Pass, scope *lockScope, fresh map[types.Object]token.Pos, x *ast.SelectorExpr, field *types.Var, spec guardSpec) {
	if spec.external {
		if !scope.heldIDAt(spec.lock, x.Pos()) {
			pass.Reportf(x.Pos(), "access to %s requires a lock with identity %s held (guarded by annotation)",
				types.ExprString(x), spec.lock)
		}
		return
	}
	// Sibling form: the guard lives on the same instance the field was
	// selected from.
	base := x.X
	required := types.ExprString(base) + "." + spec.lock
	if scope.heldExprAt(required, x.Pos()) {
		return
	}
	// Identity fallback: a `// locked:` identity precondition naming
	// this struct's lock class covers its fields too.
	if named := namedOf(baseRecv(pass, x)); named != nil && named.Obj().Pkg() != nil {
		id := pkgShort(named.Obj().Pkg()) + "." + named.Obj().Name() + "." + spec.lock
		if annotationHoldsID(scope, id) {
			return
		}
	}
	// Constructor hatch: accesses through a still-local fresh value.
	if id, ok := rootIdent(base); ok {
		if escape, isFresh := fresh[pass.TypesInfo.Uses[id]]; isFresh && x.Pos() < escape {
			return
		}
	}
	pass.Reportf(x.Pos(), "access to %s requires %s held (guarded by annotation)",
		types.ExprString(x), required)
}

// baseRecv returns the type the selection's field was selected from.
func baseRecv(pass *Pass, x *ast.SelectorExpr) types.Type {
	if sel, ok := pass.TypesInfo.Selections[x]; ok {
		return sel.Recv()
	}
	return nil
}

// rootIdent unwraps a selector chain (a.b.c → a) to its base identifier.
func rootIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

// freshLocals finds locals bound to freshly constructed values — b :=
// &T{...}, v := new(T), var v T — and the position at which each first
// escapes (any use that is not the base of a selector chain: being
// returned, passed, assigned elsewhere, or captured). Accesses before
// the escape position are constructor initialization and exempt from
// guard checking; neverEscapes means no escaping use was found.
func freshLocals(pass *Pass, scope *lockScope) map[types.Object]token.Pos {
	const neverEscapes = token.Pos(1 << 60)
	fresh := map[types.Object]token.Pos{}
	note := func(name *ast.Ident, rhs ast.Expr) {
		if name.Name == "_" {
			return
		}
		if !isFreshExpr(rhs) {
			return
		}
		if obj := pass.TypesInfo.Defs[name]; obj != nil {
			fresh[obj] = neverEscapes
		}
	}
	walkSkipping(scope.body, scope.skip, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok != token.DEFINE || len(x.Lhs) != len(x.Rhs) {
				return
			}
			for i := range x.Lhs {
				if id, ok := x.Lhs[i].(*ast.Ident); ok {
					note(id, x.Rhs[i])
				}
			}
		case *ast.DeclStmt:
			gd, ok := x.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return
			}
			for _, s := range gd.Specs {
				vs, ok := s.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if len(vs.Values) == 0 {
					// Zero value: fresh by construction.
					for _, name := range vs.Names {
						if obj := pass.TypesInfo.Defs[name]; obj != nil && name.Name != "_" {
							fresh[obj] = neverEscapes
						}
					}
					continue
				}
				if len(vs.Values) == len(vs.Names) {
					for i, name := range vs.Names {
						note(name, vs.Values[i])
					}
				}
			}
		}
	})
	if len(fresh) == 0 {
		return fresh
	}
	// Selector bases do not escape; any other use does.
	selBase := map[*ast.Ident]bool{}
	walkSkipping(scope.body, scope.skip, func(n ast.Node) {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := rootIdent(sel.X); ok {
				selBase[id] = true
			}
		}
	})
	walkSkipping(scope.body, scope.skip, func(n ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok || selBase[id] {
			return
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return
		}
		if escape, isFresh := fresh[obj]; isFresh && id.Pos() < escape {
			fresh[obj] = id.Pos()
		}
	})
	return fresh
}

// isFreshExpr reports whether e constructs a brand-new value: &T{...},
// T{...}, or new(T).
func isFreshExpr(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, ok := x.X.(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

// isOnceDo reports whether call is (*sync.Once).Do.
func isOnceDo(pass *Pass, call *ast.CallExpr) bool {
	f := calleeFunc(pass, call)
	if f == nil || f.Name() != "Do" {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named := namedOf(sig.Recv().Type())
	return named != nil && named.Obj().Name() == "Once" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync"
}
