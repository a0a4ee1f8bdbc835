// Developer benchmarks: the paper's figures, the ablation benches for
// the design choices called out in DESIGN.md section 5, the presolve and
// portfolio comparisons and substrate micro-benchmarks. They take one
// sample per run and keep no record; the paper's tables are measured by
// perfbench (`make bench` records its snapshots) and regenerated by
// cmd/experiments.
package afp_test

import (
	"context"
	"testing"
	"time"

	"afp/internal/anneal"
	"afp/internal/bench"
	"afp/internal/core"
	"afp/internal/geom"
	"afp/internal/lp"
	"afp/internal/milp"
	"afp/internal/mipmodel"
	"afp/internal/netlist"
	"afp/internal/portfolio"
	"afp/internal/route"
)

func quickMILP() milp.Options {
	return milp.Options{MaxNodes: 600, TimeLimit: 2 * time.Second}
}

// --- Figures --------------------------------------------------------------

func BenchmarkFigure1Linearization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := bench.Figure1(100, 0.25, 4, 64)
		if len(pts) != 64 {
			b.Fatal("bad sample count")
		}
	}
}

func BenchmarkFigure4CoveringRects(b *testing.B) {
	mods := bench.Figure4().Modules
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		covers := geom.CoveringRectangles(mods)
		if len(covers) >= len(mods) {
			b.Fatal("covering failed to reduce")
		}
	}
}

// BenchmarkFigure2Trace exercises the successive-augmentation trace run
// behind Figures 2/3 (and 5/6 via render).
func BenchmarkFigure2Trace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure2(bench.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Steps) == 0 {
			b.Fatal("no steps")
		}
	}
}

// --- Ablations (DESIGN.md section 5) --------------------------------------

func benchGroupSize(b *testing.B, gs int) {
	d := netlist.Random(15, 1501)
	for i := 0; i < b.N; i++ {
		r, err := core.Floorplan(d, core.Config{GroupSize: gs, MILP: quickMILP()})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Utilization(), "util%")
	}
}

func BenchmarkAblationGroupSize2(b *testing.B) { benchGroupSize(b, 2) }
func BenchmarkAblationGroupSize3(b *testing.B) { benchGroupSize(b, 3) }
func BenchmarkAblationGroupSize5(b *testing.B) { benchGroupSize(b, 5) }

func benchCoveringRects(b *testing.B, disable bool) {
	d := netlist.Random(15, 1501)
	binaries := 0
	for i := 0; i < b.N; i++ {
		r, err := core.Floorplan(d, core.Config{GroupSize: 3, MILP: quickMILP(), NoCoveringRects: disable})
		if err != nil {
			b.Fatal(err)
		}
		binaries = 0
		for _, s := range r.Steps {
			binaries += s.Binaries
		}
	}
	b.ReportMetric(float64(binaries), "binaries")
}

func BenchmarkAblationCoveringRectsOverlapping(b *testing.B) {
	d := netlist.Random(15, 1501)
	binaries := 0
	for i := 0; i < b.N; i++ {
		r, err := core.Floorplan(d, core.Config{GroupSize: 3, MILP: quickMILP(), OverlappingCovers: true})
		if err != nil {
			b.Fatal(err)
		}
		binaries = 0
		for _, s := range r.Steps {
			binaries += s.Binaries
		}
	}
	b.ReportMetric(float64(binaries), "binaries")
}

func BenchmarkAblationCoveringRectsOn(b *testing.B)  { benchCoveringRects(b, false) }
func BenchmarkAblationCoveringRectsOff(b *testing.B) { benchCoveringRects(b, true) }

func benchBranching(b *testing.B, rule milp.Branching) {
	// A fixed augmentation subproblem: 4 modules over 3 obstacles.
	d := netlist.Random(12, 99)
	spec := &mipmodel.Spec{
		ChipWidth: 80,
		Obstacles: []geom.Rect{
			geom.NewRect(0, 0, 30, 20), geom.NewRect(30, 0, 50, 12), geom.NewRect(30, 12, 20, 9),
		},
	}
	for i := 0; i < 4; i++ {
		spec.New = append(spec.New, mipmodel.NewModule{Index: i, Mod: &d.Modules[i]})
	}
	built, err := mipmodel.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	nodes := 0
	for i := 0; i < b.N; i++ {
		res := milp.Solve(built.Model, milp.Options{Branching: rule, MaxNodes: 50000})
		if res.X == nil {
			b.Fatal("no solution")
		}
		nodes = res.Nodes
	}
	b.ReportMetric(float64(nodes), "nodes")
}

func BenchmarkAblationBranchMostFractional(b *testing.B) { benchBranching(b, milp.MostFractional) }
func BenchmarkAblationBranchPseudoCost(b *testing.B)     { benchBranching(b, milp.PseudoCost) }

func benchLinearization(b *testing.B, mode mipmodel.Linearization) {
	// Flexible-heavy design: linearization choice matters most here.
	d := &netlist.Design{Name: "flex"}
	for i := 0; i < 9; i++ {
		d.Modules = append(d.Modules, netlist.Module{
			Name: string(rune('a' + i)), Kind: netlist.Flexible,
			Area: 40 + 10*float64(i%3), MinAspect: 0.4, MaxAspect: 2.5,
		})
	}
	for i := 0; i < b.N; i++ {
		r, err := core.Floorplan(d, core.Config{GroupSize: 3, MILP: quickMILP(), Linearize: mode, PostOptimize: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Utilization(), "util%")
	}
}

func BenchmarkAblationLinearizeSecant(b *testing.B)  { benchLinearization(b, mipmodel.Secant) }
func BenchmarkAblationLinearizeTangent(b *testing.B) { benchLinearization(b, mipmodel.Tangent) }

// Presolve ablation on the 9-module flexible design: tightened big-M
// coefficients plus the model/bound presolve against the textbook blanket
// formulation. Workers is pinned to 1 so the node counts are
// deterministic and comparable across runs; steps solve to optimality
// (node budget far above what either variant needs), so the heights of
// the two variants must agree.
func benchPresolve(b *testing.B, off bool) {
	d := &netlist.Design{Name: "flex"}
	for i := 0; i < 9; i++ {
		d.Modules = append(d.Modules, netlist.Module{
			Name: string(rune('a' + i)), Kind: netlist.Flexible,
			Area: 40 + 10*float64(i%3), MinAspect: 0.4, MaxAspect: 2.5,
		})
	}
	cfg := core.Config{
		GroupSize:  3,
		MILP:       milp.Options{MaxNodes: 50000, TimeLimit: 30 * time.Second},
		Workers:    1,
		NoPresolve: off,
	}
	for i := 0; i < b.N; i++ {
		r, err := core.Floorplan(d, cfg)
		if err != nil {
			b.Fatal(err)
		}
		nodes := 0
		for _, s := range r.Steps {
			nodes += s.Nodes
		}
		b.ReportMetric(float64(nodes), "nodes")
		b.ReportMetric(r.Height, "height")
	}
}

func BenchmarkPresolveOn(b *testing.B)  { benchPresolve(b, false) }
func BenchmarkPresolveOff(b *testing.B) { benchPresolve(b, true) }

// --- Portfolio race (DESIGN.md section 13) --------------------------------

// flex9Bench is the 9-module all-flexible presolve/linearize instance,
// reused as the portfolio acceptance design.
func flex9Bench() *netlist.Design {
	d := &netlist.Design{Name: "flex"}
	for i := 0; i < 9; i++ {
		d.Modules = append(d.Modules, netlist.Module{
			Name: string(rune('a' + i)), Kind: netlist.Flexible,
			Area: 40 + 10*float64(i%3), MinAspect: 0.4, MaxAspect: 2.5,
		})
	}
	return d
}

func benchPortfolio(b *testing.B, backends []string) {
	d := flex9Bench()
	cfg := core.Config{
		GroupSize: 3,
		MILP:      milp.Options{MaxNodes: 50000, TimeLimit: 30 * time.Second},
		Workers:   1,
	}
	for i := 0; i < b.N; i++ {
		res, err := portfolio.Solve(context.Background(), d, cfg, portfolio.Options{
			Seed: int64(i + 1), Backends: backends,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.TTFF.Microseconds())/1000, "portfolio_ttff_ms")
		b.ReportMetric(res.Height, "height")
	}
}

// The full race versus an anneal-alone control: every contestant runs
// inside the race as it does alone, so the race reaches first-feasible
// no later than anneal by itself and ends no taller, at the lowest
// height of its contestants. It lasts as long as the slicing annealer,
// its slowest contestant on this design.
func BenchmarkPortfolioRaceFlex9(b *testing.B)        { benchPortfolio(b, nil) }
func BenchmarkPortfolioAnnealAloneFlex9(b *testing.B) { benchPortfolio(b, []string{"anneal"}) }

// Exact (Section 2.3 single MILP) versus successive augmentation on a
// small design: quantifies the suboptimality of the greedy decomposition.
func benchExactVsAug(b *testing.B, exact bool) {
	d := netlist.Random(6, 66)
	for i := 0; i < b.N; i++ {
		var r *core.Result
		var err error
		if exact {
			r, err = core.FloorplanExact(d, core.Config{ChipWidth: 50, MILP: quickMILP()})
		} else {
			r, err = core.Floorplan(d, core.Config{ChipWidth: 50, GroupSize: 2, MILP: quickMILP()})
		}
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Height, "height")
	}
}

func BenchmarkAblationExact(b *testing.B)        { benchExactVsAug(b, true) }
func BenchmarkAblationAugmentation(b *testing.B) { benchExactVsAug(b, false) }

// Scaling extension beyond the paper's Table 1: the 49-module synthetic
// ami49 stand-in.
func BenchmarkExtensionAMI49(b *testing.B) {
	d := netlist.AMI49()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := core.Floorplan(d, core.Config{GroupSize: 3, MILP: quickMILP()})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Utilization(), "util%")
	}
}

// --- Substrate micro-benchmarks -------------------------------------------

func BenchmarkLPSolveMedium(b *testing.B) {
	// A representative LP: 40 vars, 60 rows.
	build := func() *lp.Problem {
		p := lp.NewProblem()
		vars := make([]lp.VarID, 40)
		for i := range vars {
			vars[i] = p.AddVariable("v", 0, 10, float64(i%7)-3)
		}
		for r := 0; r < 60; r++ {
			var terms []lp.Term
			for j := 0; j < 40; j += (r % 5) + 1 {
				terms = append(terms, lp.Term{Var: vars[j], Coef: float64((r+j)%9) - 4})
			}
			op := lp.LE
			if r%3 == 0 {
				op = lp.GE
			}
			p.AddConstraint("c", terms, op, float64(r%11)-2)
		}
		return p
	}
	p := build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMILPKnapsack(b *testing.B) {
	p := lp.NewProblem()
	p.SetMaximize(true)
	m := milp.NewModel(p)
	var terms []lp.Term
	for i := 0; i < 16; i++ {
		v := m.AddBinary("b", float64(3+i*7%13))
		terms = append(terms, lp.Term{Var: v, Coef: float64(2 + i*5%11)})
	}
	p.AddConstraint("cap", terms, lp.LE, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := milp.Solve(m, milp.Options{})
		if res.Status != milp.StatusOptimal {
			b.Fatal(res.Status)
		}
	}
}

func BenchmarkAnnealAMI33(b *testing.B) {
	d := netlist.AMI33()
	for i := 0; i < b.N; i++ {
		r, err := anneal.Floorplan(d, anneal.Config{Seed: 1, MovesPerTemp: 60})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*d.TotalArea()/r.ChipArea(), "util%")
	}
}

func BenchmarkRouteAMI33(b *testing.B) {
	d := netlist.AMI33()
	fp, err := core.Floorplan(d, core.Config{GroupSize: 3, MILP: quickMILP()})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr, err := route.Route(fp, route.Config{Algorithm: route.WeightedShortestPath})
		if err != nil {
			b.Fatal(err)
		}
		if rr.Wirelength <= 0 {
			b.Fatal("no wirelength")
		}
	}
}
