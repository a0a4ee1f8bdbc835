package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// LockOrder builds the static lock-acquisition graph across every
// analyzed package and fails on cycles. A directed edge A -> B (by
// canonical lock identity, see lockstate.go) is recorded when
//
//   - a body lexically acquires lock B while lock A is held (taken in
//     the body, or a `// locked:` precondition), or
//
//   - a body calls, while holding A, a function whose transitive
//     summary says it acquires B — summaries are keyed by the callee's
//     full name and accumulated in package dependency order, which is
//     how cross-package edges like server.store.mu -> server.Job.mu
//     surface without whole-program pointer analysis, or
//
//   - a source comment declares the edge explicitly:
//
//     // lockorder: milp.solver.mu -> obs.Recorder.mu -- reason
//
//     for orderings routed through function values or interfaces the
//     static summaries cannot see (e.g. obs.Observer sinks).
//
// Re-acquiring the lexically identical lock expression is reported
// immediately as a double lock. Cycles — including self-edges, which
// mean two instances of one lock class nest — are reported from the
// Finish hook once every package has contributed. The blessed graph is
// committed as a golden dump (internal/analysis/testdata/
// lockorder.golden); cmd/floorplanvet compares Dump() against it so a
// new edge is always a reviewed diff. Regenerate with `make lockgraph`.
//
// Use NewLockOrder for each run: the analyzer accumulates state across
// passes and is not reusable.
type LockOrder struct {
	edges     map[[2]string]*lockEdge
	summaries map[string][]string // func full name -> acquired identities
}

// lockEdge records where one ordered pair was first observed.
type lockEdge struct {
	from, to string
	pos      token.Pos
	position token.Position
	declared bool
}

// NewLockOrder returns a fresh lock-order analyzer instance.
func NewLockOrder() *LockOrder {
	return &LockOrder{
		edges:     map[[2]string]*lockEdge{},
		summaries: map[string][]string{},
	}
}

// Analyzer exposes the instance as a driver-runnable Analyzer.
func (lo *LockOrder) Analyzer() *Analyzer {
	return &Analyzer{
		Name:   "lockorder",
		Doc:    "the cross-package lock-acquisition graph is acyclic; identical locks are never re-acquired",
		Run:    lo.run,
		Finish: lo.finish,
	}
}

// declaredEdgeRe matches explicit edge declarations; the justification
// after " -- " is mandatory by convention, like //vet:allow reasons.
var declaredEdgeRe = regexp.MustCompile(`^// lockorder: (\S+) -> (\S+)(?: -- .+)?$`)

func (lo *LockOrder) run(pass *Pass) error {
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := declaredEdgeRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				if m[1] == m[2] {
					pass.Reportf(c.Pos(), "declared lock-order edge %s -> %s is a self-loop", m[1], m[2])
					continue
				}
				lo.addEdge(pass, m[1], m[2], c.Pos(), true)
			}
		}
	}

	scopes := collectLockScopes(pass)
	lo.summarize(pass, scopes)
	for _, scope := range scopes {
		lo.scanScope(pass, scope)
	}
	return nil
}

// summarize computes, for every function declared in this package, the
// set of lock identities it may acquire transitively, and publishes
// them under the function's full name. Cross-package callees resolve
// against summaries from already-analyzed packages (Load returns
// dependencies first); unknown callees contribute nothing. Goroutine
// literals are excluded — a spawned goroutine's acquisitions do not
// happen while the caller runs.
func (lo *LockOrder) summarize(pass *Pass, scopes []*lockScope) {
	var fns []*fnData
	local := map[string]*fnData{}
	for _, scope := range scopes {
		if scope.decl == nil || scope.goLit {
			continue
		}
		obj, ok := pass.TypesInfo.Defs[scope.decl.Name].(*types.Func)
		if !ok {
			continue
		}
		fn := &fnData{name: obj.FullName(), acquires: map[string]bool{}}
		for _, ev := range scope.events {
			if ev.acquire && ev.id != "" {
				fn.acquires[ev.id] = true
			}
		}
		walkSkipping(scope.body, scope.skip, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			if callee := calleeFunc(pass, call); callee != nil {
				fn.callees = append(fn.callees, callee.FullName())
			}
		})
		fns = append(fns, fn)
		local[fn.name] = fn
	}
	// Fixpoint within the package (mutual recursion converges in a few
	// rounds); external callees are already final in lo.summaries.
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			for _, callee := range fn.callees {
				for _, id := range lo.lookupSummary(callee, local) {
					if !fn.acquires[id] {
						fn.acquires[id] = true
						changed = true
					}
				}
			}
		}
	}
	for _, fn := range fns {
		ids := make([]string, 0, len(fn.acquires))
		for id := range fn.acquires {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		lo.summaries[fn.name] = ids
	}
}

// fnData is one declared function's direct lock footprint while the
// package-local fixpoint runs.
type fnData struct {
	name     string
	acquires map[string]bool
	callees  []string
}

func (lo *LockOrder) lookupSummary(name string, local map[string]*fnData) []string {
	if fn, ok := local[name]; ok {
		ids := make([]string, 0, len(fn.acquires))
		for id := range fn.acquires {
			ids = append(ids, id)
		}
		return ids
	}
	return lo.summaries[name]
}

// scanScope replays one body's lock events and call sites in source
// order, recording edges from every held lock to every newly acquired
// one and flagging same-expression re-acquisition.
func (lo *LockOrder) scanScope(pass *Pass, scope *lockScope) {
	type site struct {
		pos    token.Pos
		callee string
	}
	var calls []site
	walkSkipping(scope.body, scope.skip, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if callee := calleeFunc(pass, call); callee != nil {
			calls = append(calls, site{pos: call.Pos(), callee: callee.FullName()})
		}
	})
	sort.Slice(calls, func(i, j int) bool { return calls[i].pos < calls[j].pos })

	events := scope.events // already position-ordered by the AST walk
	ci := 0
	held := append([]heldLock(nil), scope.ann...)
	heldExpr := map[string]int{} // expr -> index in held, for releases
	for i, h := range held {
		if h.expr != "" {
			heldExpr[h.expr] = i
		}
	}
	flush := func(upto token.Pos) {
		for ci < len(calls) && calls[ci].pos < upto {
			c := calls[ci]
			ci++
			for _, acquired := range lo.summaries[c.callee] {
				for _, h := range held {
					if h.id != "" && h.id != acquired {
						lo.addEdge(pass, h.id, acquired, c.pos, false)
					}
				}
			}
		}
	}
	for _, ev := range events {
		flush(ev.pos)
		if ev.acquire {
			for _, h := range held {
				if h.expr == ev.expr && ev.expr != "" {
					pass.Reportf(ev.pos, "lock %s acquired while already held (double lock)", ev.expr)
				} else if h.id != "" && ev.id != "" {
					lo.addEdge(pass, h.id, ev.id, ev.pos, false)
				}
			}
			if _, dup := heldExpr[ev.expr]; !dup {
				heldExpr[ev.expr] = len(held)
				held = append(held, heldLock{expr: ev.expr, id: ev.id})
			}
		} else if idx, ok := heldExpr[ev.expr]; ok {
			// Release: drop the expression (annotation preconditions
			// are index < len(scope.ann) and stay).
			if idx >= len(scope.ann) {
				held = append(held[:idx], held[idx+1:]...)
				delete(heldExpr, ev.expr)
				for e, j := range heldExpr {
					if j > idx {
						heldExpr[e] = j - 1
					}
				}
			}
		}
	}
	flush(token.Pos(1 << 60))
}

// addEdge records one ordered pair, keeping the first position seen.
// Self-edges (two instances of one class nesting) are kept: they are
// cycles of length one and surface in finish.
func (lo *LockOrder) addEdge(pass *Pass, from, to string, pos token.Pos, declared bool) {
	key := [2]string{from, to}
	if e, ok := lo.edges[key]; ok {
		// A declared edge supersedes nothing; keep the earliest record,
		// but remember that the pair is auto-observed too.
		if declared {
			return
		}
		if e.declared {
			e.declared = false // observed in code as well; report positions from code
			e.pos = pos
			e.position = pass.Fset.Position(pos)
		}
		return
	}
	lo.edges[key] = &lockEdge{
		from:     from,
		to:       to,
		pos:      pos,
		position: pass.Fset.Position(pos),
		declared: declared,
	}
}

// finish reports cycles in the accumulated graph, one diagnostic per
// distinct cycle, positioned at the first recorded edge on the cycle.
func (lo *LockOrder) finish() []Diagnostic {
	adj := map[string][]string{}
	nodes := map[string]bool{}
	for key := range lo.edges {
		adj[key[0]] = append(adj[key[0]], key[1])
		nodes[key[0]], nodes[key[1]] = true, true
	}
	for _, succ := range adj {
		sort.Strings(succ)
	}
	var order []string
	for n := range nodes {
		order = append(order, n)
	}
	sort.Strings(order)

	var diags []Diagnostic
	seen := map[string]bool{}
	report := func(cycle []string) {
		canon := canonicalCycle(cycle)
		if seen[canon] {
			return
		}
		seen[canon] = true
		e := lo.edges[[2]string{cycle[0], cycle[1]}]
		for i := 0; i+1 < len(cycle); i++ {
			if c := lo.edges[[2]string{cycle[i], cycle[i+1]}]; c.pos < e.pos {
				e = c
			}
		}
		diags = append(diags, Diagnostic{
			Pos:      e.pos,
			Position: e.position,
			Message:  fmt.Sprintf("lock-order cycle: %s", strings.Join(cycle, " -> ")),
		})
	}

	state := map[string]int{} // 0 unvisited, 1 on stack, 2 done
	var stack []string
	var dfs func(n string)
	dfs = func(n string) {
		state[n] = 1
		stack = append(stack, n)
		for _, m := range adj[n] {
			switch state[m] {
			case 0:
				dfs(m)
			case 1:
				// Back edge: the cycle is the stack suffix from m.
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i] == m {
						cycle := append(append([]string(nil), stack[i:]...), m)
						report(cycle)
						break
					}
				}
			}
		}
		stack = stack[:len(stack)-1]
		state[n] = 2
	}
	for _, n := range order {
		if state[n] == 0 {
			dfs(n)
		}
	}
	return diags
}

// canonicalCycle rotates a closed walk (first == last) to start at its
// smallest node so equivalent cycles dedupe.
func canonicalCycle(cycle []string) string {
	body := cycle[:len(cycle)-1]
	min := 0
	for i := range body {
		if body[i] < body[min] {
			min = i
		}
	}
	rotated := append(append([]string(nil), body[min:]...), body[:min]...)
	return strings.Join(rotated, " -> ")
}

// Dump renders the accumulated graph as sorted "A -> B" lines, the
// format of the committed golden file. Declared edges are marked so
// reviewers can tell blessed-by-comment orderings from observed ones.
func (lo *LockOrder) Dump() string {
	var lines []string
	for _, e := range lo.edges {
		line := e.from + " -> " + e.to
		if e.declared {
			line += "  (declared)"
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}
