package analysis

import (
	"go/ast"
	"go/types"
)

// Locked enforces mutex-annotation discipline: a function whose doc
// comment carries one or more machine-readable lines
//
//	// locked: <spec>
//
// may only be called with the named mutex held. The spec grammar
// (DESIGN.md section 15) generalizes the original receiver-only form:
//
//	// locked: ps.mu           the receiver's mutex — call sites must
//	                           hold <receiver expression>.mu
//	// locked: b.mu            a parameter's mutex, matched the same way
//	                           against the corresponding argument
//	// locked: regMu           a package-level mutex in the same package
//	// locked: obs.Metrics.mu  an identity: any lock whose canonical
//	                           name is pkg.Type.field, whoever owns it
//
// A call site satisfies the contract when either the calling scope
// carries a matching annotation itself, or the body lexically holds the
// required lock at the call: an <expr>.Lock() (or RLock) before it with
// no non-deferred Unlock in between. Receiver and parameter forms match
// by expression text, so holding other.mu never satisfies p.mu; the
// identity form matches by canonical name, which is what lets
// histogram.observe demand obs.Metrics.mu from another file.
//
// The check is lexical within one function body — it does not build a
// cross-procedural lockset (DESIGN.md sections 9 and 11). Annotations
// are matched per package; annotations on exported functions called
// from other packages are not visible there, so locked helpers should
// stay unexported.
var Locked = &Analyzer{
	Name: "locked",
	Doc:  "functions annotated '// locked: <spec>' are only called with the annotated mutex held",
	Run:  runLocked,
}

func runLocked(pass *Pass) error {
	annotated := map[*types.Func][]lockedReq{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			_, reqs := lockedAnnotations(pass, fd)
			if len(reqs) == 0 {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			for _, req := range reqs {
				if req.kind == reqPkgVar && req.id == "" {
					pass.Reportf(fd.Pos(), "malformed locked annotation %q: no package-level variable %q (want recv.field, param.field, a package mutex, or pkg.Type.field)",
						req.spec, req.spec)
					continue
				}
				annotated[obj] = append(annotated[obj], req)
			}
		}
	}
	if len(annotated) == 0 {
		return nil
	}

	for _, scope := range collectLockScopes(pass) {
		checkLockedCalls(pass, scope, annotated)
	}
	return nil
}

// checkLockedCalls validates every call to an annotated function inside
// one scope.
func checkLockedCalls(pass *Pass, scope *lockScope, annotated map[*types.Func][]lockedReq) {
	walkSkipping(scope.body, scope.skip, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		callee := calleeFunc(pass, call)
		if callee == nil {
			return
		}
		for _, req := range annotated[callee] {
			required, byIdentity := requiredLock(call, req)
			if byIdentity {
				if scope.heldIDAt(required, call.Pos()) {
					continue
				}
				pass.Reportf(call.Pos(), "call to %s requires a lock with identity %s held (annotate the caller '// locked: %s' or take the lock first)",
					callee.Name(), required, required)
				continue
			}
			if scope.heldExprAt(required, call.Pos()) {
				continue
			}
			if req.id != "" && annotationHoldsID(scope, req.id) {
				// The caller's own precondition names the same lock
				// class through a different spelling (e.g. an identity
				// annotation covering a receiver-form requirement).
				continue
			}
			pass.Reportf(call.Pos(), "call to %s requires %s held (annotate the caller '// locked: %s' or take the lock first)",
				callee.Name(), required, required)
		}
	})
}

// requiredLock renders req at one call site: the lock expression the
// caller must hold (in the caller's naming), or an identity when the
// requirement is instance-blind.
func requiredLock(call *ast.CallExpr, req lockedReq) (string, bool) {
	switch req.kind {
	case reqRecv:
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			return types.ExprString(sel.X) + "." + req.path, false
		}
		return req.spec, false
	case reqParam:
		if req.argIdx < len(call.Args) {
			return types.ExprString(call.Args[req.argIdx]) + "." + req.path, false
		}
		return req.spec, false
	case reqPkgVar:
		return req.spec, false
	default:
		return req.id, true
	}
}

// annotationHoldsID reports whether one of the scope's own locked:
// preconditions names the identity id.
func annotationHoldsID(scope *lockScope, id string) bool {
	for _, h := range scope.ann {
		if h.id == id && id != "" {
			return true
		}
	}
	return false
}

// recvName returns the name of fd's receiver, or "" for plain functions.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}
