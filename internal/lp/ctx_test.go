package lp

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// bigDenseLP builds an LP large enough that a solve takes many pivots,
// so cancellation can land mid-solve.
func bigDenseLP(rng *rand.Rand, n int) *Problem {
	p := NewProblem()
	vars := make([]VarID, n)
	for j := 0; j < n; j++ {
		vars[j] = p.AddVariable("x", 0, 10, -1-rng.Float64())
	}
	for i := 0; i < n; i++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if rng.Intn(3) == 0 {
				terms = append(terms, Term{Var: vars[j], Coef: 1 + rng.Float64()})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{Var: vars[i], Coef: 1})
		}
		p.AddConstraint("c", terms, LE, 5+rng.Float64()*10)
	}
	return p
}

func TestSolveCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := bigDenseLP(rand.New(rand.NewSource(7)), 20)
	if _, err := p.SolveCtx(ctx, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSolveCtxDeadlineMidSolve(t *testing.T) {
	// A zero-duration deadline must abort within the first poll window
	// rather than running the full solve.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	p := bigDenseLP(rand.New(rand.NewSource(11)), 60)
	if _, err := p.SolveCtx(ctx, Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestSolveCtxBackgroundMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		p := bigDenseLP(rng, 15)
		a, err1 := p.Solve()
		b, err2 := p.SolveCtx(context.Background(), Options{})
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: %v / %v", trial, err1, err2)
		}
		if a.Status != b.Status || (a.Objective-b.Objective) > 1e-9 || (b.Objective-a.Objective) > 1e-9 {
			t.Fatalf("trial %d: ctx solve differs: %v/%g vs %v/%g",
				trial, a.Status, a.Objective, b.Status, b.Objective)
		}
	}
}

func TestIncrementalSolveCtxCancelled(t *testing.T) {
	p := bigDenseLP(rand.New(rand.NewSource(5)), 20)
	inc, err := NewIncremental(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := inc.SolveCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A later solve with a live context must recover and agree with the
	// oracle (the basis stays consistent across cancellation).
	sol, err := inc.SolveCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cold := oracleSolve(p)
	if sol.Status != StatusOptimal || cold.Status != StatusOptimal {
		t.Fatalf("status %v / %v", sol.Status, cold.Status)
	}
	if d := sol.Objective - cold.Objective; d > 1e-7 || d < -1e-7 {
		t.Fatalf("objective after cancelled solve %g != cold %g", sol.Objective, cold.Objective)
	}
}
