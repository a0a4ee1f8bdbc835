package milp

import (
	"math"
	"testing"

	"afp/internal/lp"
)

// extConst adapts a fixed external incumbent to Options.External.
func extConst(obj float64, source string) func() (float64, string, bool) {
	return func() (float64, string, bool) { return obj, source, true }
}

// A worse external incumbent must not change the optimum, and the
// result stays owned by the branch and bound.
func TestExternalWorseKeepsOptimum(t *testing.T) {
	for _, workers := range []int{0, 4} {
		res := solveKnapsack(t, Options{
			Workers:  workers,
			External: extConst(20, "portfolio:anneal"), // knapsack max is 22
		})
		if res.Status != StatusOptimal || math.Abs(res.Objective-22) > 1e-6 {
			t.Fatalf("workers=%d: result = %+v, want optimal 22", workers, res)
		}
		if res.IncumbentSource != "bb" {
			t.Fatalf("workers=%d: incumbent source = %q, want bb", workers, res.IncumbentSource)
		}
	}
}

// A strictly better external incumbent dominates the whole search: the
// solver exhausts under the tighter cutoff, reports StatusDominated with
// the external label, and visits no more nodes than the cold search.
func TestExternalBetterDominates(t *testing.T) {
	cold := solveKnapsack(t, Options{})
	if cold.Status != StatusOptimal {
		t.Fatalf("cold status = %v", cold.Status)
	}
	for _, workers := range []int{0, 4} {
		res := solveKnapsack(t, Options{
			Workers:  workers,
			External: extConst(25, "portfolio:seqpair"), // beats the true max 22
		})
		if res.Status != StatusDominated {
			t.Fatalf("workers=%d: status = %v, want dominated", workers, res.Status)
		}
		if res.IncumbentSource != "portfolio:seqpair" {
			t.Fatalf("workers=%d: incumbent source = %q, want portfolio:seqpair", workers, res.IncumbentSource)
		}
		if res.Nodes > cold.Nodes {
			t.Fatalf("workers=%d: dominated search visited %d nodes, cold search only %d",
				workers, res.Nodes, cold.Nodes)
		}
	}
}

// An external incumbent exactly at the optimum (within AbsGap) also
// dominates: the search cannot strictly beat it, so it concedes rather
// than reproving a known height.
func TestExternalTieDominates(t *testing.T) {
	res := solveKnapsack(t, Options{External: extConst(22, "portfolio:project")})
	if res.Status != StatusDominated {
		t.Fatalf("status = %v, want dominated (external ties the optimum)", res.Status)
	}
}

// On an instance whose cold search branches, an external bound just
// above the optimum must strictly shrink the tree: every node whose LP
// bound cannot beat the external incumbent is cut.
func TestExternalPrunesNodes(t *testing.T) {
	build := func(opt Options) *Result {
		// A 12-item knapsack with correlated weights/values branches well
		// past the root (pure LP rounding is far from integral).
		p := lp.NewProblem()
		p.SetMaximize(true)
		m := NewModel(p)
		weights := []float64{3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
		var terms []lp.Term
		for i, wt := range weights {
			v := m.AddBinary(string(rune('a'+i)), wt+float64((i*7)%5))
			terms = append(terms, lp.Term{Var: v, Coef: wt})
		}
		p.AddConstraint("cap", terms, lp.LE, 80)
		return Solve(m, opt)
	}
	cold := build(Options{Workers: 1})
	if cold.Status != StatusOptimal || cold.Nodes < 3 {
		t.Fatalf("cold search too easy for this test: %+v", cold)
	}
	warm := build(Options{Workers: 1, External: extConst(cold.Objective+0.5, "x")})
	if warm.Status != StatusDominated {
		t.Fatalf("warm status = %v", warm.Status)
	}
	if warm.Nodes >= cold.Nodes {
		t.Fatalf("external bound did not prune: warm %d nodes >= cold %d", warm.Nodes, cold.Nodes)
	}
}

func TestStatusDominatedString(t *testing.T) {
	if got := StatusDominated.String(); got != "dominated" {
		t.Fatalf("StatusDominated.String() = %q", got)
	}
}
