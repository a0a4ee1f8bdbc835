package milp

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"afp/internal/lp"
)

func solveKnapsack(t *testing.T, opt Options) *Result {
	t.Helper()
	// max 10a + 13b + 7c + 5d  s.t. 3a + 4b + 2c + 1d <= 6, binaries.
	// Optimum: a=1, c=1, d=1 -> value 22, weight 6.
	p := lp.NewProblem()
	p.SetMaximize(true)
	m := NewModel(p)
	a := m.AddBinary("a", 10)
	b := m.AddBinary("b", 13)
	c := m.AddBinary("c", 7)
	d := m.AddBinary("d", 5)
	p.AddConstraint("cap", []lp.Term{{Var: a, Coef: 3}, {Var: b, Coef: 4}, {Var: c, Coef: 2}, {Var: d, Coef: 1}}, lp.LE, 6)
	return Solve(m, opt)
}

func TestKnapsack(t *testing.T) {
	res := solveKnapsack(t, Options{})
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-22) > 1e-6 {
		t.Fatalf("objective = %v, want 22", res.Objective)
	}
}

func TestKnapsackPseudoCost(t *testing.T) {
	res := solveKnapsack(t, Options{Branching: PseudoCost})
	if res.Status != StatusOptimal || math.Abs(res.Objective-22) > 1e-6 {
		t.Fatalf("pseudo-cost result = %+v", res)
	}
}

func TestIntegerInfeasible(t *testing.T) {
	// 2x = 1 with x integer in [0, 5] has a feasible LP relaxation but no
	// integer solution.
	p := lp.NewProblem()
	m := NewModel(p)
	x := p.AddVariable("x", 0, 5, 1)
	m.MarkInteger(x)
	p.AddConstraint("odd", []lp.Term{{Var: x, Coef: 2}}, lp.EQ, 1)
	res := Solve(m, Options{})
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestLPInfeasible(t *testing.T) {
	p := lp.NewProblem()
	m := NewModel(p)
	x := m.AddBinary("x", 1)
	p.AddConstraint("imp", []lp.Term{{Var: x, Coef: 1}}, lp.GE, 2)
	res := Solve(m, Options{})
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := lp.NewProblem()
	m := NewModel(p)
	x := p.AddVariable("x", 0, math.Inf(1), -1)
	z := m.AddBinary("z", 0)
	p.AddConstraint("link", []lp.Term{{Var: z, Coef: 1}}, lp.LE, 1)
	_ = x
	res := Solve(m, Options{})
	if res.Status != StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", res.Status)
	}
}

// A model the LP layer cannot solve (here: no variables at all) must
// not read as an exhausted search: nothing was explored, so the result
// is neither infeasible nor optimal, and no bound is claimed.
func TestEmptyModelIsNotExhausted(t *testing.T) {
	for _, workers := range []int{1, 2} {
		res := Solve(NewModel(lp.NewProblem()), Options{Workers: workers})
		if res.Status != StatusLimit || res.X != nil || !math.IsInf(res.BestBound, -1) {
			t.Fatalf("workers %d: %+v, want limit with no incumbent and no bound", workers, res)
		}
	}
}

func TestGeneralInteger(t *testing.T) {
	// min x + y s.t. 5x + 3y >= 17, x,y integer >= 0.
	// LP optimum x=3.4; integer optimum x=1,y=4 (cost 5)? Check: candidates
	// cost 4: (4,0)->20 ok! cost 4 works: x=4,y=0 gives 20>=17. Optimum 4.
	p := lp.NewProblem()
	m := NewModel(p)
	x := p.AddVariable("x", 0, 100, 1)
	y := p.AddVariable("y", 0, 100, 1)
	m.MarkInteger(x)
	m.MarkInteger(y)
	p.AddConstraint("cover", []lp.Term{{Var: x, Coef: 5}, {Var: y, Coef: 3}}, lp.GE, 17)
	res := Solve(m, Options{})
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-4) > 1e-6 {
		t.Fatalf("objective = %v, want 4", res.Objective)
	}
	for _, v := range []lp.VarID{x, y} {
		val := res.X[v]
		if math.Abs(val-math.Round(val)) > 1e-6 {
			t.Fatalf("variable %d not integral: %v", v, val)
		}
	}
}

// The miniature placement disjunction: two unit squares, chip width 2,
// minimize height. Integer optimum places them side by side (height 1);
// the LP relaxation would cheat below 1 without integrality.
func TestPlacementDisjunction(t *testing.T) {
	p := lp.NewProblem()
	m := NewModel(p)
	const W, H = 2.0, 4.0
	x1 := p.AddVariable("x1", 0, W-1, 0)
	x2 := p.AddVariable("x2", 0, W-1, 0)
	y1 := p.AddVariable("y1", 0, math.Inf(1), 0)
	y2 := p.AddVariable("y2", 0, math.Inf(1), 0)
	h := p.AddVariable("h", 0, math.Inf(1), 1)
	zx := m.AddBinary("zx", 0)
	zy := m.AddBinary("zy", 0)
	// Paper eq. (2): one of four relations must hold.
	p.AddConstraint("left", []lp.Term{{Var: x1, Coef: 1}, {Var: x2, Coef: -1}, {Var: zx, Coef: -W}, {Var: zy, Coef: -W}}, lp.LE, -1)
	p.AddConstraint("right", []lp.Term{{Var: x2, Coef: 1}, {Var: x1, Coef: -1}, {Var: zx, Coef: -W}, {Var: zy, Coef: W}}, lp.LE, W-1)
	p.AddConstraint("below", []lp.Term{{Var: y1, Coef: 1}, {Var: y2, Coef: -1}, {Var: zx, Coef: H}, {Var: zy, Coef: -H}}, lp.LE, H-1)
	p.AddConstraint("above", []lp.Term{{Var: y2, Coef: 1}, {Var: y1, Coef: -1}, {Var: zx, Coef: H}, {Var: zy, Coef: H}}, lp.LE, 2*H-1)
	p.AddConstraint("h1", []lp.Term{{Var: h, Coef: 1}, {Var: y1, Coef: -1}}, lp.GE, 1)
	p.AddConstraint("h2", []lp.Term{{Var: h, Coef: 1}, {Var: y2, Coef: -1}}, lp.GE, 1)
	res := Solve(m, Options{})
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-1) > 1e-6 {
		t.Fatalf("height = %v, want 1", res.Objective)
	}
	// Verify non-overlap of the decoded rectangles.
	if overlap1D(res.X[x1], res.X[x1]+1, res.X[x2], res.X[x2]+1) &&
		overlap1D(res.X[y1], res.X[y1]+1, res.X[y2], res.X[y2]+1) {
		t.Fatalf("modules overlap: %v", res.X)
	}
}

func overlap1D(a1, a2, b1, b2 float64) bool {
	return a1 < b2-1e-6 && b1 < a2-1e-6
}

func TestIncumbentHintSeedsSearch(t *testing.T) {
	p := lp.NewProblem()
	p.SetMaximize(true)
	m := NewModel(p)
	a := m.AddBinary("a", 10)
	b := m.AddBinary("b", 13)
	c := m.AddBinary("c", 7)
	d := m.AddBinary("d", 5)
	p.AddConstraint("cap", []lp.Term{{Var: a, Coef: 3}, {Var: b, Coef: 4}, {Var: c, Coef: 2}, {Var: d, Coef: 1}}, lp.LE, 6)
	hint := []float64{1, 0, 1, 1} // the true optimum
	res := Solve(m, Options{Incumbent: hint})
	if res.Status != StatusOptimal || math.Abs(res.Objective-22) > 1e-6 {
		t.Fatalf("result = %+v", res)
	}
}

func TestNodeLimitReturnsFeasible(t *testing.T) {
	// A larger knapsack: with MaxNodes=1 after the hint we should still get
	// a feasible answer (from the hint) with StatusFeasible or better.
	rng := rand.New(rand.NewSource(3))
	p := lp.NewProblem()
	p.SetMaximize(true)
	m := NewModel(p)
	n := 25
	terms := make([]lp.Term, n)
	hint := make([]float64, n)
	for i := 0; i < n; i++ {
		v := m.AddBinary("v", 1+rng.Float64()*10)
		terms[i] = lp.Term{Var: v, Coef: 1 + rng.Float64()*5}
	}
	p.AddConstraint("cap", terms, lp.LE, 20)
	res := Solve(m, Options{MaxNodes: 1, Incumbent: hint}) // all-zero hint is feasible
	if res.Status != StatusFeasible && res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if res.X == nil {
		t.Fatal("expected an incumbent")
	}
}

func TestTimeLimit(t *testing.T) {
	res := solveKnapsack(t, Options{TimeLimit: time.Hour})
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestRootRounding(t *testing.T) {
	res := solveKnapsack(t, Options{RootRounding: true})
	if res.Status != StatusOptimal || math.Abs(res.Objective-22) > 1e-6 {
		t.Fatalf("result = %+v", res)
	}
}

// Exhaustive cross-check on random small binary programs: branch and bound
// must match brute-force enumeration at one worker and at four.
func TestBruteForceCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		nb := 2 + rng.Intn(6)
		nc := 1 + rng.Intn(4)
		p := lp.NewProblem()
		m := NewModel(p)
		vars := make([]lp.VarID, nb)
		costs := make([]float64, nb)
		for i := range vars {
			costs[i] = float64(rng.Intn(21) - 10)
			vars[i] = m.AddBinary("b", costs[i])
		}
		type row struct {
			coefs []float64
			op    lp.Op
			rhs   float64
		}
		var rowsSpec []row
		for i := 0; i < nc; i++ {
			coefs := make([]float64, nb)
			terms := make([]lp.Term, 0, nb)
			for j := range coefs {
				coefs[j] = float64(rng.Intn(11) - 5)
				if coefs[j] != 0 {
					terms = append(terms, lp.Term{Var: vars[j], Coef: coefs[j]})
				}
			}
			if len(terms) == 0 {
				continue
			}
			op := lp.LE
			if rng.Float64() < 0.4 {
				op = lp.GE
			}
			rhs := float64(rng.Intn(13) - 4)
			rowsSpec = append(rowsSpec, row{coefs, op, rhs})
			p.AddConstraint("c", terms, op, rhs)
		}
		// Brute force.
		bestObj := math.Inf(1)
		found := false
		for mask := 0; mask < 1<<nb; mask++ {
			feasible := true
			for _, r := range rowsSpec {
				var lhs float64
				for j := 0; j < nb; j++ {
					if mask>>j&1 == 1 {
						lhs += r.coefs[j]
					}
				}
				if r.op == lp.LE && lhs > r.rhs+1e-9 || r.op == lp.GE && lhs < r.rhs-1e-9 {
					feasible = false
					break
				}
			}
			if !feasible {
				continue
			}
			found = true
			var obj float64
			for j := 0; j < nb; j++ {
				if mask>>j&1 == 1 {
					obj += costs[j]
				}
			}
			if obj < bestObj {
				bestObj = obj
			}
		}

		for _, workers := range []int{1, 4} {
			res := Solve(m, Options{Workers: workers})
			if !found {
				if res.Status != StatusInfeasible {
					t.Fatalf("trial %d workers %d: brute force infeasible but solver says %v", trial, workers, res.Status)
				}
				continue
			}
			if res.Status != StatusOptimal {
				t.Fatalf("trial %d workers %d: status %v", trial, workers, res.Status)
			}
			if math.Abs(res.Objective-bestObj) > 1e-6 {
				t.Fatalf("trial %d workers %d: objective %v, brute force %v", trial, workers, res.Objective, bestObj)
			}
		}
	}
}

func TestStatusStrings(t *testing.T) {
	for s, want := range map[Status]string{
		StatusOptimal:    "optimal",
		StatusFeasible:   "feasible",
		StatusInfeasible: "infeasible",
		StatusUnbounded:  "unbounded",
		StatusLimit:      "limit",
	} {
		if s.String() != want {
			t.Fatalf("Status(%d) = %q", s, s.String())
		}
	}
}
