package milp

import (
	"math"
	"math/rand"
	"testing"

	"afp/internal/lp"
)

// Maximize-mode brute-force cross-check mirroring the minimize version.
func TestBruteForceCrossCheckMaximize(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		nb := 2 + rng.Intn(5)
		p := lp.NewProblem()
		p.SetMaximize(true)
		m := NewModel(p)
		vars := make([]lp.VarID, nb)
		costs := make([]float64, nb)
		for i := range vars {
			costs[i] = float64(rng.Intn(15) - 5)
			vars[i] = m.AddBinary("b", costs[i])
		}
		coefs := make([]float64, nb)
		terms := make([]lp.Term, 0, nb)
		for j := range coefs {
			coefs[j] = float64(1 + rng.Intn(6))
			terms = append(terms, lp.Term{Var: vars[j], Coef: coefs[j]})
		}
		rhs := float64(2 + rng.Intn(10))
		p.AddConstraint("cap", terms, lp.LE, rhs)

		res := Solve(m, Options{})
		if res.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v", trial, res.Status)
		}
		best := math.Inf(-1)
		for mask := 0; mask < 1<<nb; mask++ {
			var w, v float64
			for j := 0; j < nb; j++ {
				if mask>>j&1 == 1 {
					w += coefs[j]
					v += costs[j]
				}
			}
			if w <= rhs+1e-9 && v > best {
				best = v
			}
		}
		if math.Abs(res.Objective-best) > 1e-6 {
			t.Fatalf("trial %d: objective %v, brute force %v", trial, res.Objective, best)
		}
	}
}

// General integers with small ranges against brute force.
func TestBruteForceGeneralIntegers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		p := lp.NewProblem()
		m := NewModel(p)
		x := p.AddVariable("x", 0, 4, float64(rng.Intn(7)-3))
		y := p.AddVariable("y", -2, 3, float64(rng.Intn(7)-3))
		m.MarkInteger(x)
		m.MarkInteger(y)
		a := float64(rng.Intn(5) - 2)
		b := float64(rng.Intn(5) - 2)
		rhs := float64(rng.Intn(9) - 2)
		if a != 0 || b != 0 {
			p.AddConstraint("c", []lp.Term{{Var: x, Coef: a}, {Var: y, Coef: b}}, lp.LE, rhs)
		}
		res := Solve(m, Options{})

		best := math.Inf(1)
		found := false
		for xi := 0; xi <= 4; xi++ {
			for yi := -2; yi <= 3; yi++ {
				if (a != 0 || b != 0) && a*float64(xi)+b*float64(yi) > rhs+1e-9 {
					continue
				}
				found = true
				v := p.ObjectiveCoef(x)*float64(xi) + p.ObjectiveCoef(y)*float64(yi)
				if v < best {
					best = v
				}
			}
		}
		if !found {
			if res.Status != StatusInfeasible {
				t.Fatalf("trial %d: want infeasible, got %v", trial, res.Status)
			}
			continue
		}
		if res.Status != StatusOptimal || math.Abs(res.Objective-best) > 1e-6 {
			t.Fatalf("trial %d: got %v (%v), brute force %v", trial, res.Objective, res.Status, best)
		}
		// Integrality of the returned point.
		for _, v := range []lp.VarID{x, y} {
			if math.Abs(res.X[v]-math.Round(res.X[v])) > 1e-6 {
				t.Fatalf("trial %d: non-integral %v", trial, res.X[v])
			}
		}
	}
}

func TestBestBoundAtOptimality(t *testing.T) {
	res := solveKnapsack(t, Options{})
	if math.Abs(res.BestBound-res.Objective) > 1e-5 {
		t.Fatalf("best bound %v != objective %v at optimality", res.BestBound, res.Objective)
	}
}

func TestAbsGapEarlyStop(t *testing.T) {
	// With a huge gap the solver may stop at the first incumbent; it still
	// must report a feasible (possibly optimal) solution.
	res := solveKnapsack(t, Options{AbsGap: 100})
	if res.X == nil {
		t.Fatal("no incumbent with large AbsGap")
	}
	if res.Objective > 22+1e-6 {
		t.Fatalf("objective %v exceeds true optimum", res.Objective)
	}
}

func TestModelHelpers(t *testing.T) {
	p := lp.NewProblem()
	m := NewModel(p)
	v := m.AddBinary("z", 3)
	if lo, hi := p.Bounds(v); lo != 0 || hi != 1 {
		t.Fatalf("binary bounds [%v, %v]", lo, hi)
	}
	if len(m.Ints) != 1 {
		t.Fatalf("ints = %d", len(m.Ints))
	}
	w := p.AddVariable("w", 0, 9, 0)
	m.MarkInteger(w)
	if len(m.Ints) != 2 {
		t.Fatalf("ints = %d", len(m.Ints))
	}
}

func TestBranchingOnAlreadyFixedVariables(t *testing.T) {
	// Fixing a binary via bounds before solving must be respected.
	p := lp.NewProblem()
	p.SetMaximize(true)
	m := NewModel(p)
	a := m.AddBinary("a", 5)
	b := m.AddBinary("b", 3)
	p.SetBounds(a, 0, 0) // forbid a
	p.AddConstraint("cap", []lp.Term{{Var: a, Coef: 1}, {Var: b, Coef: 1}}, lp.LE, 2)
	res := Solve(m, Options{})
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	if math.Abs(res.Objective-3) > 1e-6 || res.X[a] != 0 {
		t.Fatalf("fixed variable ignored: %+v", res)
	}
}

func TestIterLimitPointsAreNeitherBranchedOutsideNorAccepted(t *testing.T) {
	// An LP stopped at its iteration limit can report basic values far
	// outside a node's box. Branching reads them clamped into the box, so
	// no child is empty.
	s := &solver{m: hardKnapsack(3, 1)}
	n := &node{lo: []float64{0, 0, 0}, hi: []float64{1, 1, 1}}
	if k, v := s.pickBranchVar([]float64{-18217.3, 715.4, 0.25}, n); k != 2 || v != 0.25 {
		t.Fatalf("pickBranchVar = %d, %v; want the in-box fractional 2, 0.25", k, v)
	}
	if k, _ := s.pickBranchVar([]float64{-18217.3, 715.4, 1}, n); k != -1 {
		t.Fatalf("pickBranchVar = %d on values integral once clamped, want -1", k)
	}
	// With one pivot per LP solve the root already stops at the limit. Its
	// point is never returned as the incumbent, and the node it leaves
	// unexplored keeps the search from claiming a proof.
	for _, workers := range []int{1, 4} {
		m := hardKnapsack(12, 5)
		res := Solve(m, Options{Workers: workers, LP: lp.Options{MaxIter: 1}, MaxNodes: 2000})
		if res.Status != StatusLimit && res.Status != StatusFeasible {
			t.Fatalf("Workers %d: %v, want limit or feasible", workers, res)
		}
		if res.X == nil {
			continue
		}
		_, terms, _, capacity := m.P.Constraint(0)
		load := 0.0
		for _, tm := range terms {
			load += tm.Coef * res.X[tm.Var]
		}
		if load > capacity+1e-6 {
			t.Fatalf("Workers %d: incumbent load %v over capacity %v (%v)", workers, load, capacity, res)
		}
	}
}
