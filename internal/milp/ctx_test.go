package milp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"afp/internal/lp"
)

// hardKnapsack builds a correlated knapsack whose branch-and-bound tree
// is large enough that limits and deadlines land mid-search.
func hardKnapsack(n int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	p := lp.NewProblem()
	p.SetMaximize(true)
	m := NewModel(p)
	var terms []lp.Term
	for i := 0; i < n; i++ {
		w := 10 + rng.Float64()*90
		v := w + 10 // strongly correlated: hard for B&B
		b := m.AddBinary("b", v)
		terms = append(terms, lp.Term{Var: b, Coef: w})
	}
	p.AddConstraint("cap", terms, lp.LE, float64(n)*25)
	return m
}

func TestSolveCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := SolveCtx(ctx, hardKnapsack(20, 1), Options{})
	// No node was fully explored: no incumbent, limit status.
	if res.Status != StatusLimit && res.Status != StatusFeasible {
		t.Fatalf("status = %v, want limit-ish", res.Status)
	}
	if res.Status == StatusLimit && !math.IsInf(res.Gap(), 1) {
		t.Fatalf("gap without incumbent = %g, want +Inf", res.Gap())
	}
}

func TestSolveCtxDeadlinePartialResult(t *testing.T) {
	m := hardKnapsack(40, 2)
	// Verify the instance is genuinely not solvable instantly.
	probe := Solve(m, Options{MaxNodes: 50})
	if probe.Status == StatusOptimal {
		t.Skip("instance too easy to exercise deadlines")
	}

	const deadline = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	res := SolveCtx(ctx, m, Options{})
	elapsed := time.Since(start)
	if elapsed > 4*deadline {
		t.Fatalf("deadline solve took %v, want <= %v", elapsed, 4*deadline)
	}
	if res.Status != StatusFeasible && res.Status != StatusLimit && res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Status == StatusFeasible {
		// Partial result carries an incumbent and a meaningful finite or
		// infinite gap, never NaN.
		if res.X == nil {
			t.Fatal("StatusFeasible without incumbent")
		}
		if math.IsNaN(res.Gap()) {
			t.Fatal("gap is NaN")
		}
	}
}

func TestSolveCtxMatchesSolve(t *testing.T) {
	m := hardKnapsack(12, 3)
	a := Solve(m, Options{})
	b := SolveCtx(context.Background(), m, Options{})
	if a.Status != b.Status || math.Abs(a.Objective-b.Objective) > 1e-9 {
		t.Fatalf("ctx solve differs: %v/%g vs %v/%g", a.Status, a.Objective, b.Status, b.Objective)
	}
}

func TestSolveCtxWarmStartCancels(t *testing.T) {
	m := hardKnapsack(40, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res := SolveCtx(ctx, m, Options{})
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Fatalf("warm-start deadline solve took %v", elapsed)
	}
	if math.IsNaN(res.Gap()) {
		t.Fatal("gap is NaN")
	}
}
