package milp

import (
	"math"
	"testing"

	"afp/internal/lp"
)

// Warm-started branch and bound reaches the brute-force-checked knapsack
// optimum of 22 at one worker and at four, and reports its dual pivots.
func TestWarmStartKnapsack(t *testing.T) {
	for _, workers := range []int{1, 4} {
		res := solveKnapsack(t, Options{Workers: workers})
		if res.Status != StatusOptimal || math.Abs(res.Objective-22) > 1e-6 {
			t.Fatalf("workers %d: result = %+v", workers, res)
		}
		if res.DualPivots == 0 {
			t.Fatalf("workers %d: search reported no dual pivots: %+v", workers, res)
		}
	}
}

// The placement disjunction reaches its known optimum, height 1 (the two
// squares side by side), at one worker and at four.
func TestWarmStartPlacementDisjunction(t *testing.T) {
	build := func() *Model {
		p := lp.NewProblem()
		m := NewModel(p)
		const W, H = 2.0, 4.0
		x1 := p.AddVariable("x1", 0, W-1, 0)
		x2 := p.AddVariable("x2", 0, W-1, 0)
		y1 := p.AddVariable("y1", 0, H, 0)
		y2 := p.AddVariable("y2", 0, H, 0)
		h := p.AddVariable("h", 0, H, 1)
		zx := m.AddBinary("zx", 0)
		zy := m.AddBinary("zy", 0)
		p.AddConstraint("left", []lp.Term{{Var: x1, Coef: 1}, {Var: x2, Coef: -1}, {Var: zx, Coef: -W}, {Var: zy, Coef: -W}}, lp.LE, -1)
		p.AddConstraint("right", []lp.Term{{Var: x2, Coef: 1}, {Var: x1, Coef: -1}, {Var: zx, Coef: -W}, {Var: zy, Coef: W}}, lp.LE, W-1)
		p.AddConstraint("below", []lp.Term{{Var: y1, Coef: 1}, {Var: y2, Coef: -1}, {Var: zx, Coef: H}, {Var: zy, Coef: -H}}, lp.LE, H-1)
		p.AddConstraint("above", []lp.Term{{Var: y2, Coef: 1}, {Var: y1, Coef: -1}, {Var: zx, Coef: H}, {Var: zy, Coef: H}}, lp.LE, 2*H-1)
		p.AddConstraint("h1", []lp.Term{{Var: h, Coef: 1}, {Var: y1, Coef: -1}}, lp.GE, 1)
		p.AddConstraint("h2", []lp.Term{{Var: h, Coef: 1}, {Var: y2, Coef: -1}}, lp.GE, 1)
		return m
	}
	for _, workers := range []int{1, 4} {
		res := Solve(build(), Options{Workers: workers})
		if res.Status != StatusOptimal || math.Abs(res.Objective-1) > 1e-6 {
			t.Fatalf("workers %d: status %v objective %v, want optimal 1", workers, res.Status, res.Objective)
		}
	}
}

// TestRelaxedUnboundedIntegersStayOptimal solves a general-integer model
// whose integers have no upper bound. Backtracking restores a branched
// integer's upper bound to +Inf while the warm basis rests it on that
// bound with a negative reduced cost; the solver must repair the basis
// through phase 1 rather than stop at the suboptimal vertex, which
// reports 12. The optimum is x2 = 2, x1 = 0.8/4.5 and one of x0, x4 at
// 1 (they have the same cost and coefficient): 107/9.
func TestRelaxedUnboundedIntegersStayOptimal(t *testing.T) {
	p := lp.NewProblem()
	m := NewModel(p)
	inf := math.Inf(1)
	x0 := p.AddVariable("x0", 0, inf, 3)
	x1 := p.AddVariable("x1", 0, inf, 5)
	x2 := p.AddVariable("x2", 0, inf, 4)
	p.AddVariable("x3", 0, inf, 3)
	x4 := p.AddVariable("x4", 0, inf, 3)
	m.MarkInteger(x0)
	m.MarkInteger(x2)
	m.MarkInteger(x4)
	p.AddConstraint("c0", []lp.Term{{Var: x0, Coef: -2.5}, {Var: x2, Coef: -3.5}, {Var: x4, Coef: -0.5}}, lp.LE, 2.3)
	p.AddConstraint("c1", []lp.Term{{Var: x0, Coef: 3.5}, {Var: x1, Coef: 4.5}, {Var: x2, Coef: 4.5}, {Var: x4, Coef: 3.5}}, lp.GE, 13.3)
	for _, presolve := range []bool{false, true} {
		res := Solve(m, Options{Workers: 1, Presolve: presolve})
		if res.Status != StatusOptimal || math.Abs(res.Objective-107.0/9) > 1e-6 {
			t.Fatalf("presolve %v: status %v objective %v, want optimal %v", presolve, res.Status, res.Objective, 107.0/9)
		}
	}
}
