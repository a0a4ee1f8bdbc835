package lp

import (
	"math"
	"math/rand"
	"testing"
)

// buildBoxLP creates a random box-bounded LP plus a feasible anchor point.
func buildBoxLP(rng *rand.Rand) *Problem {
	nv := 2 + rng.Intn(5)
	p := NewProblem()
	point := make([]float64, nv)
	vars := make([]VarID, nv)
	for j := 0; j < nv; j++ {
		lo := float64(rng.Intn(5)) - 2
		hi := lo + 1 + float64(rng.Intn(8))
		vars[j] = p.AddVariable("v", lo, hi, float64(rng.Intn(9)-4))
		point[j] = lo + (hi-lo)*rng.Float64()
	}
	for i := 0; i < 1+rng.Intn(5); i++ {
		var terms []Term
		lhs := 0.0
		for j := 0; j < nv; j++ {
			c := float64(rng.Intn(7) - 3)
			if c == 0 {
				continue
			}
			terms = append(terms, Term{vars[j], c})
			lhs += c * point[j]
		}
		if len(terms) == 0 {
			continue
		}
		switch rng.Intn(3) {
		case 0:
			p.AddConstraint("c", terms, LE, lhs+rng.Float64()*3)
		case 1:
			p.AddConstraint("c", terms, GE, lhs-rng.Float64()*3)
		default:
			p.AddConstraint("c", terms, EQ, lhs)
		}
	}
	if rng.Intn(2) == 0 {
		p.SetMaximize(true)
	}
	return p
}

// A fresh Incremental's first solve must match the dense oracle.
func TestIncrementalMatchesColdSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 150; trial++ {
		p := buildBoxLP(rng)
		inc, err := NewIncremental(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		warm, err := inc.Solve()
		if err != nil {
			t.Fatal(err)
		}
		cold := oracleSolve(p)
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm %v vs cold %v", trial, warm.Status, cold.Status)
		}
		if warm.Status != StatusOptimal {
			continue
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
			t.Fatalf("trial %d: warm obj %v != cold %v", trial, warm.Objective, cold.Objective)
		}
		if v := p.MaxViolation(warm.X); v > 1e-6 {
			t.Fatalf("trial %d: warm point violates by %v", trial, v)
		}
	}
}

// The heart of the warm-start claim: after random bound tightenings and
// relaxations, the incremental solver must keep agreeing with the dense
// oracle.
func TestIncrementalBoundChangeSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 60; trial++ {
		p := buildBoxLP(rng)
		inc, err := NewIncremental(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Remember original bounds for re-widening.
		nv := p.NumVariables()
		origLo := make([]float64, nv)
		origHi := make([]float64, nv)
		for j := 0; j < nv; j++ {
			origLo[j], origHi[j] = p.Bounds(VarID(j))
		}
		for step := 0; step < 12; step++ {
			j := VarID(rng.Intn(nv))
			lo, hi := origLo[j], origHi[j]
			switch rng.Intn(3) {
			case 0: // fix near a bound
				if rng.Intn(2) == 0 {
					hi = lo
				} else {
					lo = hi
				}
			case 1: // tighten to a random subrange
				a := lo + (hi-lo)*rng.Float64()
				b := a + (hi-a)*rng.Float64()
				lo, hi = a, b
			default: // restore
			}
			inc.SetBounds(j, lo, hi)
			p.SetBounds(j, lo, hi)

			warm, err := inc.Solve()
			if err != nil {
				t.Fatal(err)
			}
			cold := oracleSolve(p)
			if warm.Status != cold.Status {
				t.Fatalf("trial %d step %d: warm %v vs cold %v", trial, step, warm.Status, cold.Status)
			}
			if warm.Status != StatusOptimal {
				continue
			}
			if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
				t.Fatalf("trial %d step %d: warm %v != cold %v", trial, step, warm.Objective, cold.Objective)
			}
			if v := p.MaxViolation(warm.X); v > 1e-6 {
				t.Fatalf("trial %d step %d: violation %v", trial, step, v)
			}
		}
	}
}

// TestIncrementalUnboundedColumnsMatchOracle walks one solver through a
// column whose cost favours an infinite upper bound: unbounded at first
// (phase 1 proves the dual infeasible and the zero-cost run finds a
// feasible point), optimal once SetBounds gives the column a finite
// upper bound, unbounded again once the bound is removed, and
// infeasible when a row excludes every point. Every solve must agree
// with the dense oracle.
func TestIncrementalUnboundedColumnsMatchOracle(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 0, math.Inf(1), -1) // improving direction unbounded
	y := p.AddVariable("y", 0, 3, 1)
	p.AddConstraint("link", []Term{{x, 1}, {y, -1}}, GE, -2)
	inc, err := NewIncremental(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for step, b := range []struct {
		v      VarID
		lo, hi float64
		want   Status
	}{
		{x, 0, math.Inf(1), StatusUnbounded},
		{x, 0, 5, StatusOptimal},
		{x, 0, math.Inf(1), StatusUnbounded},
		{x, 1, 4, StatusOptimal},
		{y, 3, 3, StatusOptimal},
		{x, 0, math.Inf(1), StatusUnbounded},
	} {
		inc.SetBounds(b.v, b.lo, b.hi)
		p.SetBounds(b.v, b.lo, b.hi)
		got, err := inc.Solve()
		if err != nil {
			t.Fatal(err)
		}
		want := oracleSolve(p)
		if got.Status != b.want || want.Status != b.want {
			t.Fatalf("step %d: warm %v, oracle %v, want %v", step, got.Status, want.Status, b.want)
		}
		if got.Status == StatusOptimal && math.Abs(got.Objective-want.Objective) > 1e-9 {
			t.Fatalf("step %d: warm obj %v vs oracle %v", step, got.Objective, want.Objective)
		}
	}
	// A row no point satisfies makes the problem infeasible even though
	// the dual is still infeasible too.
	q := p.Clone()
	q.AddConstraint("cap", []Term{{x, 1}}, LE, -1)
	got, err := q.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleSolve(q); got.Status != StatusInfeasible || want.Status != StatusInfeasible {
		t.Fatalf("engine %v, oracle %v, want infeasible", got.Status, want.Status)
	}
}

// TestIncrementalRelaxToInfFuzz warm-re-solves random LPs while
// SetBounds tightens, fixes, restores and relaxes upper bounds to +Inf
// — the bound patterns a branch and bound over unbounded integers makes
// — and requires every solve to agree with the dense oracle. Relaxing a
// column that rests on its upper bound with a negative reduced cost
// leaves it no dual-feasible rest; that solve must go through phase 1
// instead of stopping at a suboptimal vertex reported as optimal. Half
// the trials start from box LPs, half from general ones that need phase
// 1 (or end unbounded or infeasible) before any bound changes.
func TestIncrementalRelaxToInfFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	solves := 0
	for trial := 0; trial < 200; trial++ {
		p := buildBoxLP(rng)
		if trial%2 == 1 {
			p = buildGeneralLP(rng)
		}
		inc, err := NewIncremental(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		nv := p.NumVariables()
		origLo := make([]float64, nv)
		origHi := make([]float64, nv)
		for j := 0; j < nv; j++ {
			origLo[j], origHi[j] = p.Bounds(VarID(j))
		}
		for step := 0; step < 60; step++ {
			j := VarID(rng.Intn(nv))
			lo, hi := origLo[j], origHi[j]
			top := hi // a finite stand-in for an infinite upper bound
			if math.IsInf(top, 1) {
				top = lo + 6
			}
			switch rng.Intn(4) {
			case 0: // fix at a bound
				if rng.Intn(2) == 0 {
					hi = lo
				} else {
					lo, hi = top, top
				}
			case 1: // tighten to a random subrange
				a := lo + (top-lo)*rng.Float64()
				lo, hi = a, a+(top-a)*rng.Float64()
			case 2: // relax the upper bound away
				lo, hi = lo+float64(rng.Intn(2)), math.Inf(1)
			}
			inc.SetBounds(j, lo, hi)
			p.SetBounds(j, lo, hi)
			warm, err := inc.Solve()
			if err != nil {
				t.Fatal(err)
			}
			solves++
			cold := oracleSolve(p)
			if warm.Status != cold.Status {
				t.Fatalf("trial %d step %d: warm %v vs oracle %v", trial, step, warm.Status, cold.Status)
			}
			if warm.Status != StatusOptimal {
				continue
			}
			if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
				t.Fatalf("trial %d step %d: warm obj %v vs oracle %v", trial, step, warm.Objective, cold.Objective)
			}
			if v := p.MaxViolation(warm.X); v > 1e-6 {
				t.Fatalf("trial %d step %d: warm point violates by %v", trial, step, v)
			}
		}
	}
	if solves != 12000 {
		t.Fatalf("%d solves, want 12000", solves)
	}
}

func TestIncrementalInfeasibleAfterFixing(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 0, 4, 1)
	y := p.AddVariable("y", 0, 4, 1)
	p.AddConstraint("sum", []Term{{x, 1}, {y, 1}}, GE, 6)
	inc, err := NewIncremental(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := inc.Solve()
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("initial solve: %v %v", sol.Status, err)
	}
	// Fixing both variables low makes the GE row unreachable.
	inc.SetBounds(x, 0, 1)
	inc.SetBounds(y, 0, 1)
	sol, err = inc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
	// Relaxing again restores optimality.
	inc.SetBounds(x, 0, 4)
	inc.SetBounds(y, 0, 4)
	sol, err = inc.Solve()
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("after relax: %v %v", sol.Status, err)
	}
	if math.Abs(sol.Objective-6) > 1e-7 {
		t.Fatalf("objective %v, want 6", sol.Objective)
	}
}

func TestIncrementalWarmIterationsShrink(t *testing.T) {
	// A medium LP: the first solve does real work, a tiny bound nudge
	// should re-solve in far fewer pivots.
	rng := rand.New(rand.NewSource(7))
	p := NewProblem()
	vars := make([]VarID, 30)
	for j := range vars {
		vars[j] = p.AddVariable("v", 0, 10, float64(rng.Intn(9)-4))
	}
	for i := 0; i < 40; i++ {
		var terms []Term
		for j := range vars {
			if rng.Intn(3) == 0 {
				terms = append(terms, Term{vars[j], float64(rng.Intn(7) - 3)})
			}
		}
		if len(terms) == 0 {
			continue
		}
		p.AddConstraint("c", terms, LE, float64(5+rng.Intn(20)))
	}
	inc, err := NewIncremental(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := inc.Solve()
	if err != nil || first.Status != StatusOptimal {
		t.Fatalf("first solve %v %v", first.Status, err)
	}
	inc.SetBounds(vars[0], 1, 10) // small tightening
	second, err := inc.Solve()
	if err != nil || second.Status != StatusOptimal {
		t.Fatalf("second solve %v %v", second.Status, err)
	}
	if first.Iterations > 0 && second.Iterations > first.Iterations {
		t.Fatalf("warm re-solve took %d pivots vs %d initially", second.Iterations, first.Iterations)
	}
}
