package main

import (
	"sort"
	"sync"

	"afp/internal/obs"
)

// Fold is an obs.Sink that folds a solver event stream into per-layer
// totals as the events arrive, so a traced run keeps counters rather than
// every event.
//
// Span self time is the span's duration minus the part of its interval
// that its ended child spans cover (children may overlap, as parallel
// branch-and-bound workers do). An lp.solve event is attributed to the
// nearest enclosing open "bb", "bb.worker" or "adjust" span. Ends without
// a start, lp.solve events outside any known span and spans that never
// end are tolerated: the first two are counted as orphans, the last are
// left out of every total.
//
// Span ids are unique per observer only, so a Fold takes one observer's
// events; the service workload folds each job's trace on its own and
// sums the totals.
type Fold struct {
	mu   sync.Mutex
	open map[int64]*openSpan // guarded by mu

	// All fields below are guarded by mu.
	self map[string]int64 // layer -> summed self time, µs
	wall map[string]int64 // layer -> summed duration, µs

	lpSolves, lpIters, lpDual, lpRefactors, lpDegenerate, lpIterLimit int
	lpUS, lpMaxUS                                                     int64
	lpInBB, lpInAdjust                                                int64 // µs
	adjustIters                                                       int
	modelFixed                                                        int
	idleUS, parallelUS                                                int64
	orphans                                                           int
}

type openSpan struct {
	layer    string
	parent   int64
	workers  int
	children [][2]int64 // [start, end] in trace µs of ended children
}

// NewFold returns an empty fold.
func NewFold() *Fold {
	return &Fold{
		open: map[int64]*openSpan{},
		self: map[string]int64{},
		wall: map[string]int64{},
	}
}

// layerOf names the layer a span's time belongs to. The two presolve
// passes share the span name "presolve" and are told apart by Detail:
// "model" is mipmodel's geometric presolve, "propagate" is milp's bound
// propagation.
func layerOf(name, detail string) string {
	if name == "presolve" && detail != "" {
		return "presolve." + detail
	}
	return name
}

// Emit folds one event.
func (f *Fold) Emit(e obs.Event) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch e.Kind {
	case obs.KindSpanStart:
		f.open[e.Span] = &openSpan{layer: layerOf(e.Name, e.Detail), parent: e.Parent, workers: e.Worker}
	case obs.KindSpanEnd:
		f.endSpan(e)
	case obs.KindLPSolve:
		f.lpSolves++
		f.lpIters += e.Iters
		f.lpDual += e.DualPivots
		f.lpRefactors += e.Refactors
		f.lpDegenerate += e.Degenerate
		f.lpUS += e.DurUS
		if e.DurUS > f.lpMaxUS {
			f.lpMaxUS = e.DurUS
		}
		if e.Status == "iteration-limit" {
			f.lpIterLimit++
		}
		switch f.owner(e.Span) {
		case "bb":
			f.lpInBB += e.DurUS
		case "adjust":
			f.lpInAdjust += e.DurUS
			f.adjustIters += e.Iters
		default:
			f.orphans++
		}
	case obs.KindSearchParallel:
		f.idleUS += e.IdleUS
	case obs.KindPresolve:
		if e.Detail == "model" {
			f.modelFixed += e.Fixed
		}
	}
}

func (f *Fold) endSpan(e obs.Event) {
	start, end := e.T-e.DurUS, e.T
	sp, ok := f.open[e.Span]
	if !ok {
		f.orphans++
		return
	}
	delete(f.open, e.Span)
	self := e.DurUS - covered(sp.children, start, end)
	if self < 0 {
		self = 0
	}
	f.self[sp.layer] += self
	f.wall[sp.layer] += e.DurUS
	if sp.layer == "bb" && sp.workers > 1 {
		f.parallelUS += int64(sp.workers) * e.DurUS
	}
	if p, ok := f.open[sp.parent]; ok && sp.parent != 0 {
		p.children = append(p.children, [2]int64{start, end})
	}
}

// owner walks the open-span chain from id to the nearest span whose
// layer owns LP time: "bb" (including its workers) or "adjust".
func (f *Fold) owner(id int64) string {
	for depth := 0; id != 0 && depth < 64; depth++ {
		sp, ok := f.open[id]
		if !ok {
			return ""
		}
		switch sp.layer {
		case "bb", "bb.worker":
			return "bb"
		case "adjust":
			return "adjust"
		}
		id = sp.parent
	}
	return ""
}

// covered returns the length of the union of the intervals clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([][2]int64(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	have := false
	for _, x := range s {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if have && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if have {
			total += curHi - curLo
		}
		curLo, curHi, have = a, b, true
	}
	if have {
		total += curHi - curLo
	}
	return total
}

// FoldTotals is a snapshot of a Fold.
type FoldTotals struct {
	Self, Wall map[string]int64 // µs by layer

	LPSolves, LPIters, LPDualPivots, LPRefactors, LPDegenerate, LPIterLimit int
	LPUS, LPMaxUS, LPInBBUS, LPInAdjustUS                                   int64
	AdjustIters, ModelFixed                                                 int
	IdleUS, ParallelUS                                                      int64
	Orphans, Open                                                           int
}

// Totals snapshots the fold. Spans still open are reported by count only.
func (f *Fold) Totals() FoldTotals {
	f.mu.Lock()
	defer f.mu.Unlock()
	cp := func(m map[string]int64) map[string]int64 {
		out := make(map[string]int64, len(m))
		for k, v := range m {
			out[k] = v
		}
		return out
	}
	return FoldTotals{
		Self: cp(f.self), Wall: cp(f.wall),
		LPSolves: f.lpSolves, LPIters: f.lpIters, LPDualPivots: f.lpDual,
		LPRefactors: f.lpRefactors, LPDegenerate: f.lpDegenerate, LPIterLimit: f.lpIterLimit,
		LPUS: f.lpUS, LPMaxUS: f.lpMaxUS, LPInBBUS: f.lpInBB, LPInAdjustUS: f.lpInAdjust,
		AdjustIters: f.adjustIters, ModelFixed: f.modelFixed,
		IdleUS: f.idleUS, ParallelUS: f.parallelUS,
		Orphans: f.orphans, Open: len(f.open),
	}
}

// add sums o into t; LPMaxUS takes the larger of the two.
func (t *FoldTotals) add(o FoldTotals) {
	if t.Self == nil {
		t.Self, t.Wall = map[string]int64{}, map[string]int64{}
	}
	for k, v := range o.Self {
		t.Self[k] += v
	}
	for k, v := range o.Wall {
		t.Wall[k] += v
	}
	t.LPSolves += o.LPSolves
	t.LPIters += o.LPIters
	t.LPDualPivots += o.LPDualPivots
	t.LPRefactors += o.LPRefactors
	t.LPDegenerate += o.LPDegenerate
	t.LPIterLimit += o.LPIterLimit
	t.LPUS += o.LPUS
	t.LPMaxUS = max(t.LPMaxUS, o.LPMaxUS)
	t.LPInBBUS += o.LPInBBUS
	t.LPInAdjustUS += o.LPInAdjustUS
	t.AdjustIters += o.AdjustIters
	t.ModelFixed += o.ModelFixed
	t.IdleUS += o.IdleUS
	t.ParallelUS += o.ParallelUS
	t.Orphans += o.Orphans
	t.Open += o.Open
}
