package milp

import (
	"context"
	"math"
	"sync"
	"time"

	"afp/internal/lp"
	"afp/internal/obs"
)

// The branch and bound runs Options.Workers goroutines over one shared
// pool of open nodes; Workers: 1 is a single worker running the same
// code. Every taken node ends in exactly one close or prune event, so
// the opened == closed + pruned + open trace invariant holds:
//
//   - each worker dives: after branching it keeps the child nearer the
//     LP value and publishes the sibling to the pool;
//   - a worker whose dive closes resumes at the newest sibling it
//     published itself, so each worker runs a depth-first search and at
//     one worker this is plain serial backtracking. Only a worker with
//     no sibling of its own left steals, and it takes the oldest open
//     node. A best-bound pool would instead restart every closed dive at
//     the shallowest open node: with no incumbent yet that search runs
//     breadth-first and can spend the whole node budget without reaching
//     a leaf;
//   - taking a node another worker created counts as a steal;
//   - the incumbent is shared under the pool mutex, so every worker
//     prunes against the global best;
//   - on any exit (exhaustion, node/time limit, ctx cancellation) each
//     worker returns its unprocessed dive node to the pool, and the bound
//     of any node left with its LP unfinished (aborted mid-solve, failed
//     with an error, or stopped at the iteration limit with nothing to
//     branch on) is folded in, so the reported BestBound is proven and
//     such a search ends limit or feasible, never exhausted.

// node is one open subproblem: the integer-variable bounds along its path.
type node struct {
	lo, hi    []float64 // bounds for m.Ints, in order
	bound     float64   // parent LP bound (minimize sense), -inf at root
	depth     int
	branchVar int  // index into m.Ints of the variable branched to create this node; -1 at root
	branchUp  bool // direction of that branch
	id        int  // creation-order id for telemetry (root = 1)
	owner     int  // 1-based id of the worker that created it; 0 for the root
}

// solver is the state shared by all workers of one search.
type solver struct {
	m        *Model
	opt      Options
	ctx      context.Context
	sign     float64 // +1 minimize, -1 maximize: node objectives are sign*obj
	deadline time.Time
	workers  int

	o        *obs.Observer
	start    time.Time
	probeGap int // nodes between progress probes

	mu            sync.Mutex
	cond          *sync.Cond
	pool          []*node // guarded by mu; open nodes in publication order
	idle          int     // guarded by mu
	stopped       bool    // guarded by mu; drain: limit, cancellation, exhaustion or root unbounded
	hitLimit      bool    // guarded by mu; a limit or cancellation left part of the tree unexplored
	rootUnbounded bool    // guarded by mu
	abortFold     float64 // guarded by mu; min bound over nodes dropped with their LP unfinished

	incumbent    []float64 // guarded by mu
	incumbentObj float64   // guarded by mu; minimize sense
	haveInc      bool      // guarded by mu

	nodes      int   // guarded by mu
	lpIters    int   // guarded by mu
	dualPivots int   // guarded by mu
	refactors  int   // guarded by mu
	pushed     int   // guarded by mu; nodes created (node.open events)
	prunedN    int   // guarded by mu; nodes discarded without an LP solve
	steals     int   // guarded by mu
	idleUS     int64 // guarded by mu

	psUp, psDown   []float64 // guarded by mu; pseudo-cost history
	psUpN, psDownN []int     // guarded by mu
}

// worker is one worker goroutine's private LP: a warm-start basis over
// the shared immutable problem snapshot, never shared with other
// workers.
type worker struct {
	s   *solver
	id  int             // 1-based
	ctx context.Context // carries the worker's span; LP solves link to it
	inc *lp.Incremental
}

func search(ctx context.Context, m *Model, opt Options, workers int) *Result {
	s := &solver{
		m:            m,
		opt:          opt,
		ctx:          ctx,
		sign:         1,
		workers:      workers,
		o:            opt.Obs,
		start:        time.Now(),
		probeGap:     opt.ProgressEvery,
		abortFold:    math.Inf(1),
		incumbentObj: math.Inf(1),
		psUp:         make([]float64, len(m.Ints)),
		psDown:       make([]float64, len(m.Ints)),
		psUpN:        make([]int, len(m.Ints)),
		psDownN:      make([]int, len(m.Ints)),
	}
	s.cond = sync.NewCond(&s.mu)
	if m.P.Maximizing() {
		s.sign = -1
	}
	if opt.TimeLimit > 0 {
		s.deadline = time.Now().Add(opt.TimeLimit)
	}

	rootLo := make([]float64, len(m.Ints))
	rootHi := make([]float64, len(m.Ints))
	for k, v := range m.Ints {
		lo, hi := m.P.Bounds(v)
		rootLo[k] = math.Ceil(lo - intTol)
		rootHi[k] = math.Floor(hi + intTol)
	}

	// One pristine basis is built over a snapshot of the problem, and
	// every other worker receives a Clone() of it BEFORE anything
	// (incumbent hint, root solve) mutates the prototype — after that the
	// bases never touch shared mutable state. Without an LP nothing can
	// be explored: the whole tree is unexplored mass, so the search ends
	// limited with no bound, exactly as if the root's LP had failed.
	proto, err := lp.NewIncremental(m.P, opt.LP)
	if err != nil {
		s.hitLimit = true
		s.abortFold = math.Inf(-1)
		return s.result()
	}
	ws := make([]*worker, workers)
	for i := range ws {
		w := &worker{s: s, id: i + 1, ctx: ctx, inc: proto}
		if i > 0 {
			w.inc = proto.Clone()
		}
		ws[i] = w
	}

	if opt.Incumbent != nil {
		ws[0].tryHint(opt.Incumbent, rootLo, rootHi)
	}

	root := &node{lo: rootLo, hi: rootHi, bound: math.Inf(-1), branchVar: -1}
	s.mu.Lock()
	s.pushed++
	root.id = s.pushed
	s.pool = append(s.pool, root)
	s.mu.Unlock()
	if s.o.Enabled() {
		s.o.Emit(obs.Event{
			Kind: obs.KindNodeOpen, Node: root.id, Depth: 0,
			Bound: s.sign * root.bound, BranchVar: -1,
		})
	}

	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			s.o.Do(ctx, "bb.worker", obs.SpanAttrs{Worker: w.id}, func(ctx context.Context) {
				w.ctx = ctx
				w.run()
			})
		}(w)
	}
	wg.Wait()
	return s.result()
}

func (s *solver) timeUp() bool {
	if s.ctx.Err() != nil {
		return true
	}
	return !s.deadline.IsZero() && time.Now().After(s.deadline)
}

// stopLocked flags the drain and wakes every waiter.
//
// locked: s.mu
func (s *solver) stopLocked() {
	s.stopped = true
	s.cond.Broadcast()
}

// next hands the worker its next node: the dive child it kept from its
// last branch when there is one, otherwise a node of the shared pool
// (see takeLocked), blocking while the pool is empty but other workers
// may still publish. It returns nil when the search is over — pool
// drained with every worker idle, a limit hit, or the context cancelled
// — after returning any unprocessed dive node to the pool so the open
// count and the folded bound stay exact. Exhaustion is checked before
// the limits: a node or time limit stops the search only when a node is
// left to take, so an exhausted tree is never reported as limited. Nodes
// that the shared incumbent already dominates are pruned here, before
// any LP is paid for.
func (s *solver) next(id int, local *node) *node {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stopped {
			if local != nil {
				s.pool = append(s.pool, local)
			}
			return nil
		}
		if local == nil && len(s.pool) == 0 {
			s.idle++
			if s.idle == s.workers {
				// Nothing open anywhere and nobody working: exhausted.
				s.stopLocked()
				return nil
			}
			t0 := time.Now()
			s.cond.Wait()
			s.idleUS += time.Since(t0).Microseconds()
			s.idle--
			continue
		}
		if s.nodes >= s.opt.MaxNodes || s.timeUp() {
			s.hitLimit = true
			s.stopLocked()
			continue
		}
		n := local
		if n != nil {
			local = nil
		} else {
			n = s.takeLocked(id)
		}
		if s.haveInc && n.bound >= s.incumbentObj-s.opt.AbsGap {
			s.prunedN++
			if s.o.Enabled() {
				s.o.Emit(obs.Event{
					Kind: obs.KindNodePrune, Node: n.id, Depth: n.depth,
					Bound: s.sign * n.bound, Worker: id,
				})
			}
			continue
		}
		s.nodes++
		if n.owner != 0 && n.owner != id {
			s.steals++
		}
		if s.o.Enabled() && s.nodes%s.probeGap == 0 {
			s.emitProgressLocked(n.bound)
		}
		return n
	}
}

// takeLocked removes the worker's next node from the non-empty pool: the
// newest node the worker published itself, so its search backtracks
// exactly like a serial depth-first search, or, when it has none left,
// the oldest node in the pool. The oldest node roots the largest subtree
// still open, so steals stay rare and each worker searches its own part
// of the tree: taking another worker's newest node instead crowds every
// worker into one subtree, where a wrong early branch strands them all.
//
// locked: s.mu
func (s *solver) takeLocked(id int) *node {
	i := len(s.pool) - 1
	for i >= 0 && s.pool[i].owner != id {
		i--
	}
	if i < 0 {
		i = 0
	}
	n := s.pool[i]
	copy(s.pool[i:], s.pool[i+1:])
	s.pool[len(s.pool)-1] = nil
	s.pool = s.pool[:len(s.pool)-1]
	return n
}

// emitProgressLocked reports the periodic search probe: explored/open
// counts, incumbent, proven bound and relative gap. Emitting while s.mu
// is held orders the pool lock ahead of every observer sink mutex; the
// sinks are leaves that take no further locks, and they are reached
// through the obs.Sink interface, which the static lock graph cannot
// trace — so the orderings are declared:
//
// lockorder: milp.solver.mu -> obs.JSONLWriter.mu -- solver events are emitted while the pool lock is held; the JSONL sink locks to encode
// lockorder: milp.solver.mu -> obs.Recorder.mu -- solver events are emitted while the pool lock is held; the recorder locks to append
// lockorder: milp.solver.mu -> obs.LogSink.mu -- solver events are emitted while the pool lock is held; the log sink locks to write
// lockorder: milp.solver.mu -> obs.Metrics.mu -- the metrics sink folds events emitted under the pool lock into histograms
//
// locked: s.mu
func (s *solver) emitProgressLocked(curBound float64) {
	lb := math.Min(minOpenBound(s.pool), curBound)
	e := obs.Event{
		Kind: obs.KindProgress, Nodes: s.nodes, Open: len(s.pool),
		Iters: s.lpIters, Bound: s.sign * lb,
	}
	if s.haveInc {
		e.Obj = s.sign * s.incumbentObj
		e.Gap = relGap(s.incumbentObj, lb)
	} else {
		e.Gap = math.Inf(1)
	}
	s.o.Emit(e)
}

// emitClose reports a node fully processed after its LP solve.
func (s *solver) emitClose(id int, n *node, detail string, obj float64) {
	if s.o.Enabled() {
		s.o.Emit(obs.Event{
			Kind: obs.KindNodeClose, Node: n.id, Depth: n.depth,
			Detail: detail, Obj: s.sign * obj, Worker: id,
		})
	}
}

// openTwo assigns creation ids to a branch's children (down first) and
// reports them.
func (s *solver) openTwo(id int, down, up *node) {
	s.mu.Lock()
	s.pushed++
	down.id = s.pushed
	s.pushed++
	up.id = s.pushed
	s.mu.Unlock()
	if s.o.Enabled() {
		for _, n := range [2]*node{down, up} {
			s.o.Emit(obs.Event{
				Kind: obs.KindNodeOpen, Node: n.id, Depth: n.depth,
				Bound: s.sign * n.bound, BranchVar: n.branchVar, Worker: id,
			})
		}
	}
}

// share publishes a node to the pool and wakes one idle worker.
func (s *solver) share(n *node) {
	s.mu.Lock()
	s.pool = append(s.pool, n)
	s.mu.Unlock()
	s.cond.Signal()
}

// cutoff returns the pruning cutoff, the incumbent objective in minimize
// sense, and whether an incumbent exists.
func (s *solver) cutoff() (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.incumbentObj, s.haveInc
}

// publishIncumbent installs a strictly better incumbent under the lock
// and reports it. n is nil for incumbents from hints and dives, which
// lie outside the tree (node 0 in the event).
func (s *solver) publishIncumbent(id int, n *node, x []float64, obj float64) {
	s.mu.Lock()
	if s.haveInc && obj >= s.incumbentObj {
		s.mu.Unlock()
		return
	}
	s.incumbent = append([]float64(nil), x...)
	s.incumbentObj = obj
	s.haveInc = true
	nodes := s.nodes
	s.mu.Unlock()
	if s.o.Enabled() {
		e := obs.Event{Kind: obs.KindIncumbent, Obj: s.sign * obj, Nodes: nodes, Worker: id}
		if n != nil {
			e.Node = n.id
			e.Depth = n.depth
		}
		s.o.Emit(e)
	}
}

// recordPseudo updates branching history with the bound degradation seen
// after branching variable k in the given direction.
func (s *solver) recordPseudo(k int, up bool, degradation float64) {
	if degradation < 0 {
		degradation = 0
	}
	s.mu.Lock()
	if up {
		s.psUp[k] += degradation
		s.psUpN[k]++
	} else {
		s.psDown[k] += degradation
		s.psDownN[k]++
	}
	s.mu.Unlock()
}

// pickBranchVar returns the index (into m.Ints) of the branching variable
// and its value, or -1 when all integer variables are integral. Variables
// already fixed by the node's bounds are never selected. Values are read
// clamped into the node's box: an LP stopped at its iteration limit can
// leave basic values far outside their bounds, and branching on one of
// those would create an empty child. Pseudo costs are read from the
// history every worker shares.
func (s *solver) pickBranchVar(x []float64, n *node) (int, float64) {
	if s.opt.Branching == PseudoCost {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	best, bestVal := -1, 0.0
	bestScore := intTol
	for k, v := range s.m.Ints {
		//vet:allow toleq -- node bounds are fixed by assignment; exact == is intentional
		if n.lo[k] == n.hi[k] {
			continue
		}
		val := math.Min(math.Max(x[v], n.lo[k]), n.hi[k])
		f := val - math.Floor(val)
		dist := math.Min(f, 1-f)
		if dist <= intTol {
			continue
		}
		var score float64
		switch s.opt.Branching {
		case PseudoCost:
			up := pseudo(s.psUp[k], s.psUpN[k])
			down := pseudo(s.psDown[k], s.psDownN[k])
			score = math.Min(up*(1-f), down*f) + dist*1e-3
		default:
			score = dist
		}
		if score > bestScore {
			bestScore, best, bestVal = score, k, val
		}
	}
	return best, bestVal
}

func pseudo(sum float64, n int) float64 {
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// run is one worker's loop: take a node, process it, dive on the child
// it kept, until next reports the search over.
func (w *worker) run() {
	var local *node
	for {
		n := w.s.next(w.id, local)
		if n == nil {
			return
		}
		local = w.process(n)
	}
}

// setIntBounds applies a node's integer bounds to the worker's LP.
func (w *worker) setIntBounds(n *node) {
	for k, v := range w.s.m.Ints {
		w.inc.SetBounds(v, n.lo[k], n.hi[k])
	}
}

// solveLP solves this worker's private relaxation and returns the
// solution plus the node bound in minimize sense. The returned Solution
// (and its X) is the worker's reused buffer: it is only valid until the
// worker's next solveLP call, so values needed across solves must be
// copied out first.
func (w *worker) solveLP() (*lp.Solution, float64) {
	sol, err := w.inc.SolveCtxReuse(w.ctx)
	if err != nil {
		return nil, math.Inf(1)
	}
	w.s.mu.Lock()
	w.s.lpIters += sol.Iterations
	w.s.dualPivots += sol.DualPivots
	w.s.refactors += sol.Refactorizations
	w.s.mu.Unlock()
	return sol, w.s.sign * sol.Objective
}

// tryHint fixes integers to the hint's rounded values, re-optimizes the
// continuous part on this worker's private LP and publishes the result.
func (w *worker) tryHint(hint []float64, rootLo, rootHi []float64) {
	n := &node{lo: cloneF(rootLo), hi: cloneF(rootHi)}
	for k, v := range w.s.m.Ints {
		val := math.Round(hint[v])
		if val < rootLo[k]-intTol || val > rootHi[k]+intTol {
			return
		}
		n.lo[k], n.hi[k] = val, val
	}
	w.setIntBounds(n)
	sol, obj := w.solveLP()
	if sol != nil && sol.Status == lp.StatusOptimal {
		w.s.publishIncumbent(w.id, nil, sol.X, obj)
	}
}

// process explores one node and returns the dive child this worker
// keeps, or nil when the node closed.
func (w *worker) process(n *node) *node {
	s := w.s
	w.setIntBounds(n)
	sol, obj := w.solveLP()
	if sol == nil {
		// Cancellation aborted this node's LP mid-solve, or the LP failed
		// with an error: its parent bound is unexplored mass, fold it into
		// the proven bound and stop, so the search cannot read as
		// exhausted.
		detail := "lperror"
		if s.timeUp() {
			detail = "cancelled"
		}
		s.emitClose(w.id, n, detail, n.bound)
		s.mu.Lock()
		s.hitLimit = true
		s.abortFold = math.Min(s.abortFold, n.bound)
		s.stopLocked()
		s.mu.Unlock()
		return nil
	}
	switch sol.Status {
	case lp.StatusInfeasible:
		s.emitClose(w.id, n, "infeasible", n.bound)
		return nil
	case lp.StatusUnbounded:
		s.emitClose(w.id, n, "unbounded", n.bound)
		if n.id == 1 {
			s.mu.Lock()
			s.rootUnbounded = true
			s.stopLocked()
			s.mu.Unlock()
		}
		return nil
	case lp.StatusIterLimit:
		// Bound and point untrusted: keep the parent's bound and branch on
		// the guess, but never take the point as an incumbent.
		obj = n.bound
	}
	if n.branchVar >= 0 && !math.IsInf(n.bound, -1) {
		s.recordPseudo(n.branchVar, n.branchUp, obj-n.bound)
	}
	if cut, have := s.cutoff(); have && obj >= cut-s.opt.AbsGap {
		s.emitClose(w.id, n, "bound", obj)
		return nil
	}

	frac, x := s.pickBranchVar(sol.X, n)
	if frac < 0 {
		if sol.Status == lp.StatusIterLimit {
			// Nothing left to branch on and no point to trust: the node
			// stays unexplored, so the search cannot end proven.
			s.emitClose(w.id, n, "iterlimit", obj)
			s.mu.Lock()
			s.hitLimit = true
			s.abortFold = math.Min(s.abortFold, n.bound)
			s.mu.Unlock()
			return nil
		}
		s.publishIncumbent(w.id, n, sol.X, obj)
		s.emitClose(w.id, n, "integer", obj)
		return nil
	}
	fl := math.Floor(x)
	down := &node{lo: cloneF(n.lo), hi: cloneF(n.hi), bound: obj, depth: n.depth + 1, branchVar: frac, owner: w.id}
	down.hi[frac] = fl
	up := &node{lo: cloneF(n.lo), hi: cloneF(n.hi), bound: obj, depth: n.depth + 1, branchVar: frac, branchUp: true, owner: w.id}
	up.lo[frac] = fl + 1
	s.emitClose(w.id, n, "branched", obj)
	s.openTwo(w.id, down, up)

	// Dive toward the nearest integer; the sibling feeds the pool.
	near, far := down, up
	if x-fl >= 0.5 {
		near, far = up, down
	}
	s.share(far)
	return near
}

// result assembles the Result once every worker has returned. It runs
// after wg.Wait(), so the lock is uncontended; taking it anyway keeps
// every read of shared state under s.mu and pairs the final events with
// the same ordering emitProgressLocked established.
func (s *solver) result() *Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StatusInfeasible
	bound := math.Inf(-1)
	switch {
	case s.rootUnbounded:
		st = StatusUnbounded
	case s.hitLimit:
		// A limit stops the search only with a node in hand, which went
		// back to the pool, or with an LP unfinished, which folded that
		// node's bound: the fold below is never +Inf.
		st = StatusLimit
		if s.haveInc {
			st = StatusFeasible
		}
		bound = math.Min(minOpenBound(s.pool), s.abortFold)
	case s.haveInc:
		st = StatusOptimal
		bound = s.incumbentObj
	}

	r := &Result{
		Status: st, Nodes: s.nodes, LPIters: s.lpIters,
		DualPivots: s.dualPivots, Refactorizations: s.refactors,
		BestBound: s.sign * bound,
	}
	if s.haveInc {
		r.X = s.incumbent
		r.Objective = s.sign * s.incumbentObj
	}
	if s.o.Enabled() {
		s.o.Emit(obs.Event{
			Kind: obs.KindSearchParallel, Workers: s.workers,
			Steals: s.steals, IdleUS: s.idleUS,
		})
		s.o.Emit(obs.Event{
			Kind: obs.KindSearchDone, Status: st.String(),
			Obj: r.Objective, Bound: r.BestBound, Gap: r.Gap(),
			Nodes: s.nodes, Iters: s.lpIters,
			DualPivots: s.dualPivots, Refactors: s.refactors,
			Open: len(s.pool), Pruned: s.prunedN,
			DurUS: time.Since(s.start).Microseconds(),
		})
	}
	return r
}

// relGap is the relative MIP gap between an incumbent and a bound, both
// in minimize sense.
func relGap(inc, bound float64) float64 {
	if math.IsInf(bound, 0) || math.IsInf(inc, 0) {
		return math.Inf(1)
	}
	return math.Abs(inc-bound) / math.Max(1e-10, math.Abs(inc))
}

func minOpenBound(pool []*node) float64 {
	best := math.Inf(1)
	for _, n := range pool {
		if n.bound < best {
			best = n.bound
		}
	}
	return best
}

func cloneF(xs []float64) []float64 { return append([]float64(nil), xs...) }
