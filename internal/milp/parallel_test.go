package milp

import (
	"context"
	"math"
	"testing"
	"time"

	"afp/internal/lp"
	"afp/internal/obs"
)

// parInstances are models whose serial and parallel solves must agree.
func parInstances() map[string]*Model {
	return map[string]*Model{
		"hard16": hardKnapsack(16, 3),
		"hard18": hardKnapsack(18, 5),
		"hard20": hardKnapsack(20, 11),
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	for name, m := range parInstances() {
		serial := Solve(m, Options{Workers: 1})
		for _, opt := range []Options{
			{Workers: 4},
			{Workers: 4, Branching: PseudoCost},
			{Workers: 3, RootRounding: true},
		} {
			par := Solve(m, opt)
			if par.Status != serial.Status {
				t.Errorf("%s %+v: status %v, serial %v", name, opt, par.Status, serial.Status)
				continue
			}
			if math.Abs(par.Objective-serial.Objective) > 1e-6 {
				t.Errorf("%s %+v: objective %v, serial %v", name, opt, par.Objective, serial.Objective)
			}
			if par.Status == StatusOptimal && par.Gap() > 1e-6 {
				t.Errorf("%s %+v: optimal with gap %g", name, opt, par.Gap())
			}
			// The proven bound must not claim more than the optimum: for a
			// maximize instance BestBound >= Objective at optimality and the
			// two agree within the gap tolerance.
			if math.Abs(par.BestBound-serial.BestBound) > 1e-6*(1+math.Abs(serial.BestBound)) {
				t.Errorf("%s %+v: bound %v, serial %v", name, opt, par.BestBound, serial.BestBound)
			}
		}
	}
}

func TestParallelWorkersOneIsSerialDeterministic(t *testing.T) {
	// Workers=1 must reproduce the serial search exactly: two runs agree
	// bit for bit in effort counters and the full incumbent vector.
	m := hardKnapsack(16, 9)
	a := Solve(m, Options{Workers: 1})
	b := Solve(m, Options{Workers: 1})
	if a.Nodes != b.Nodes || a.LPIters != b.LPIters {
		t.Fatalf("Workers=1 nondeterministic: nodes %d/%d iters %d/%d", a.Nodes, b.Nodes, a.LPIters, b.LPIters)
	}
	if a.Objective != b.Objective || a.BestBound != b.BestBound {
		t.Fatalf("Workers=1 objective/bound drift: %v/%v vs %v/%v", a.Objective, a.BestBound, b.Objective, b.BestBound)
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatalf("Workers=1 incumbent drift at x[%d]: %v vs %v", i, a.X[i], b.X[i])
		}
	}
}

func TestParallelNodeAccounting(t *testing.T) {
	rec := &obs.Recorder{}
	m := hardKnapsack(16, 3)
	res := Solve(m, Options{Workers: 4, Obs: obs.New(rec)})
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	checkNodeAccounting(t, rec, res)
	sp, ok := rec.LastKind(obs.KindSearchParallel)
	if !ok {
		t.Fatal("no search.parallel event")
	}
	if sp.Workers != 4 {
		t.Errorf("search.parallel Workers = %d, want 4", sp.Workers)
	}
	if sp.Steals < 0 || sp.IdleUS < 0 {
		t.Errorf("negative steal/idle counters: %+v", sp)
	}
	// Node events from the tree (not the root) must carry a worker id.
	for _, e := range rec.Events() {
		if e.Kind == obs.KindNodeClose && (e.Worker < 1 || e.Worker > 4) {
			t.Fatalf("node.close without worker id: %+v", e)
		}
	}
}

func TestParallelMaxNodes(t *testing.T) {
	rec := &obs.Recorder{}
	res := Solve(hardKnapsack(24, 7), Options{Workers: 4, MaxNodes: 60, Obs: obs.New(rec)})
	if res.Nodes > 60 {
		t.Fatalf("explored %d nodes, limit 60", res.Nodes)
	}
	if res.Status != StatusFeasible && res.Status != StatusLimit {
		t.Fatalf("status = %v, want feasible/limit", res.Status)
	}
	checkNodeAccounting(t, rec, res)
	if res.Status == StatusFeasible {
		// Maximize: the proven bound must sit at or above the incumbent.
		if res.BestBound < res.Objective-1e-6 {
			t.Fatalf("bound %v below incumbent %v", res.BestBound, res.Objective)
		}
		if math.IsInf(res.Gap(), 1) {
			t.Fatalf("feasible result with infinite gap: %+v", res)
		}
	}
}

func TestExhaustedTreeIsNotLimited(t *testing.T) {
	// A node limit stops the search only when a node is left to take: a
	// tree that the budget explores completely is proven, not limited.
	p := lp.NewProblem()
	p.SetMaximize(true)
	m := NewModel(p)
	x := p.AddVariable("x", 0, 10, 1)
	m.MarkInteger(x)
	p.AddConstraint("cap", []lp.Term{{Var: x, Coef: 1}}, lp.LE, 3)
	for _, workers := range []int{1, 2, 4} {
		for trial := 0; trial < 20; trial++ {
			res := Solve(m, Options{Workers: workers, MaxNodes: 1})
			if res.Status != StatusOptimal || res.Objective != 3 || res.Gap() != 0 {
				t.Fatalf("integral root, Workers %d: %v, want optimal 3 with gap 0", workers, res)
			}
		}
	}
}

func TestTakePrefersOwnNewestThenStealsOldest(t *testing.T) {
	// A worker resumes at the newest node it published itself; only with
	// none of its own left does it steal, taking the oldest open node.
	s := &solver{pool: []*node{{id: 1}, {id: 2, owner: 1}, {id: 3, owner: 2}, {id: 4, owner: 1}, {id: 5, owner: 2}}}
	for _, want := range []struct{ worker, id int }{{1, 4}, {1, 2}, {1, 1}, {2, 5}, {1, 3}} {
		if n := s.takeLocked(want.worker); n.id != want.id {
			t.Fatalf("worker %d took node %d, want %d", want.worker, n.id, want.id)
		}
	}
	if len(s.pool) != 0 {
		t.Fatalf("%d nodes left in the pool", len(s.pool))
	}
}

func TestParallelCancellation(t *testing.T) {
	rec := &obs.Recorder{}
	// hardKnapsack(38, 7) needs ~100k nodes serially, far beyond what any
	// machine explores in 15ms, so the deadline reliably lands mid-search.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	res := SolveCtx(ctx, hardKnapsack(38, 7), Options{Workers: 4, Obs: obs.New(rec)})
	if res.Status != StatusFeasible && res.Status != StatusLimit {
		t.Fatalf("status = %v, want feasible/limit", res.Status)
	}
	checkNodeAccounting(t, rec, res)
	if res.Status == StatusFeasible {
		if res.BestBound < res.Objective-1e-6 {
			t.Fatalf("bound %v below incumbent %v after cancel", res.BestBound, res.Objective)
		}
		if math.IsInf(res.Gap(), 1) {
			t.Fatalf("feasible result with infinite gap after cancel: %+v", res)
		}
	}
}

func TestParallelCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := SolveCtx(ctx, hardKnapsack(20, 1), Options{Workers: 4})
	if res.Status != StatusLimit && res.Status != StatusFeasible {
		t.Fatalf("status = %v, want limit-ish", res.Status)
	}
	if res.Status == StatusLimit && !math.IsInf(res.Gap(), 1) {
		t.Fatalf("gap without incumbent = %g, want +Inf", res.Gap())
	}
}

func TestParallelInfeasible(t *testing.T) {
	// 2x = 1 with x integer has a feasible relaxation but no integer point.
	p := lp.NewProblem()
	m := NewModel(p)
	x := p.AddVariable("x", 0, 5, 1)
	m.MarkInteger(x)
	p.AddConstraint("eq", []lp.Term{{Var: x, Coef: 2}}, lp.EQ, 1)
	res := Solve(m, Options{Workers: 4})
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestParallelIncumbentHint(t *testing.T) {
	// Seeding the parallel solve with the known optimum must keep it
	// optimal and can only shrink the tree.
	m := hardKnapsack(16, 3)
	base := Solve(m, Options{Workers: 1})
	hinted := Solve(m, Options{Workers: 4, Incumbent: base.X})
	if hinted.Status != StatusOptimal || math.Abs(hinted.Objective-base.Objective) > 1e-6 {
		t.Fatalf("hinted parallel solve: %+v, want objective %v", hinted, base.Objective)
	}
}

func TestParallelStress(t *testing.T) {
	// Many concurrent solves of the same model exercise the pool, the
	// incumbent lock, Incremental cloning and concurrent NewIncremental
	// calls on one shared Problem under the race detector.
	m := hardKnapsack(14, 21)
	want := Solve(m, Options{Workers: 1})
	done := make(chan *Result, 6)
	for i := 0; i < 6; i++ {
		go func() { done <- Solve(m, Options{Workers: 4}) }()
	}
	for i := 0; i < 6; i++ {
		res := <-done
		if res.Status != StatusOptimal || math.Abs(res.Objective-want.Objective) > 1e-6 {
			t.Fatalf("concurrent parallel solve diverged: %+v, want %v", res, want.Objective)
		}
	}
}
