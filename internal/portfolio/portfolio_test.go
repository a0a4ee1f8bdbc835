package portfolio

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"afp/internal/core"
	"afp/internal/geom"
	"afp/internal/milp"
	"afp/internal/netlist"
	"afp/internal/obs"
)

// flex9 is the 9-module all-flexible design of the presolve/linearize
// benchmarks: the portfolio acceptance instance.
func flex9() *netlist.Design {
	d := &netlist.Design{Name: "flex"}
	for i := 0; i < 9; i++ {
		d.Modules = append(d.Modules, netlist.Module{
			Name: string(rune('a' + i)), Kind: netlist.Flexible,
			Area: 40 + 10*float64(i%3), MinAspect: 0.4, MaxAspect: 2.5,
		})
	}
	return d
}

func flex9Config() core.Config {
	return core.Config{
		GroupSize: 3,
		MILP:      milp.Options{MaxNodes: 50000, TimeLimit: 30 * time.Second},
		Workers:   1,
	}
}

// rand8Config is the floorplan CLI's default configuration at one
// branch-and-bound worker. On rand8 every contestant, the slicing
// annealer included, returns within about 100 ms, so the races that
// wait for all four stay cheap under -race; the slicing annealer takes
// about a second on flex9.
func rand8Config() core.Config {
	return core.Config{
		GroupSize:    3,
		PostOptimize: true,
		MILP:         milp.Options{MaxNodes: 8000, TimeLimit: 10 * time.Second},
		Workers:      1,
	}
}

// stepStat is what the step-for-step check compares of one augmentation
// step.
type stepStat struct {
	nodes, dualPivots int
	height            float64
}

// milpSteps reads the augmentation steps of the one MILP run in a trace:
// each step's search.done carries its nodes and dual pivots, and its
// step.done the partial floorplan height.
func milpSteps(events []obs.Event) []stepStat {
	var out []stepStat
	for _, e := range events {
		switch e.Kind {
		case obs.KindSearchDone:
			out = append(out, stepStat{nodes: e.Nodes, dualPivots: e.DualPivots})
		case obs.KindStepDone:
			out[len(out)-1].height = e.Height
		}
	}
	return out
}

// The race-mode stress test: race the MILP, the sequence pair and the
// projection packer on the 9-module flexible design and check the
// portfolio contract under any interleaving. Every contestant runs to
// its end, the answer is never worse than milp-alone, incumbents
// strictly improve, and at Workers: 1 the raced MILP takes exactly the
// steps of core.FloorplanCtx alone, because the race hands it nothing.
// (The full four-contestant races run on rand8: the slicing annealer
// takes about a second on flex9.)
func TestRaceStressFlex9(t *testing.T) {
	if testing.Short() {
		t.Skip("race of three contestants")
	}
	d := flex9()
	cfg := flex9Config()
	alone, err := core.FloorplanCtx(context.Background(), d, cfg)
	if err != nil {
		t.Fatalf("milp-alone: %v", err)
	}

	names := []string{"milp", "seqpair", "project"}
	rec := &obs.Recorder{}
	res, err := Solve(context.Background(), d, cfg, Options{Backends: names, Seed: 7, Obs: obs.New(rec)})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if v := res.Result.Verify(); len(v) > 0 {
		t.Fatalf("winning floorplan is illegal: %v", v)
	}

	// (a) The race never loses to milp-alone, and when milp itself wins
	// the heights are identical.
	if res.Height > alone.Height+geom.Tol {
		t.Fatalf("race height %.6g worse than milp-alone %.6g", res.Height, alone.Height)
	}
	if res.Winner == "milp" && math.Abs(res.Height-alone.Height) > geom.Tol {
		t.Fatalf("milp won with height %.6g, but milp-alone gives %.6g", res.Height, alone.Height)
	}
	if want := "portfolio:" + res.Winner; res.Result.Source != want {
		t.Fatalf("winner source = %q, want %q", res.Result.Source, want)
	}

	// (b) Proven bound monotone non-decreasing across incumbents, and
	// every incumbent strictly improves.
	if len(res.Incumbents) == 0 {
		t.Fatal("no incumbents recorded")
	}
	for i := 1; i < len(res.Incumbents); i++ {
		if res.Incumbents[i].Height >= res.Incumbents[i-1].Height {
			t.Fatalf("incumbent heights not strictly decreasing: %+v", res.Incumbents)
		}
		if res.Incumbents[i].Bound < res.Incumbents[i-1].Bound {
			t.Fatalf("bound snapshots decreased: %+v", res.Incumbents)
		}
	}
	if res.Bound > res.Height+geom.Tol {
		t.Fatalf("proven bound %.6g above the achieved height %.6g", res.Bound, res.Height)
	}
	if res.TTFF <= 0 || res.TTFF > res.Elapsed {
		t.Fatalf("TTFF %v outside (0, %v]", res.TTFF, res.Elapsed)
	}

	// (c) Nothing ends a race early: every contestant finished.
	if len(res.Backends) != len(names) {
		t.Fatalf("backend results = %d, want %d", len(res.Backends), len(names))
	}
	for _, b := range res.Backends {
		if b.Outcome != "finished" {
			t.Fatalf("backend %s ended %q (%s), want finished", b.Name, b.Outcome, b.Err)
		}
	}

	// (d) The raced MILP's steps are the solo solve's: nodes, dual
	// pivots and heights.
	want := make([]stepStat, len(alone.Steps))
	for i, s := range alone.Steps {
		want[i] = stepStat{nodes: s.Nodes, dualPivots: s.DualPivots, height: s.Height}
	}
	got := milpSteps(rec.Events())
	if len(got) != len(want) {
		t.Fatalf("raced milp ran %d steps, milp-alone %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: raced milp %+v, milp-alone %+v", i, got[i], want[i])
		}
	}

	// The telemetry contract: one portfolio span, one backend span per
	// contestant, one win event naming the winner.
	spans := map[string]int{}
	for _, e := range rec.Events() {
		if e.Kind == obs.KindSpanStart {
			spans[e.Name]++
		}
	}
	if spans["portfolio"] != 1 {
		t.Fatalf("portfolio spans = %d, want 1", spans["portfolio"])
	}
	for _, name := range names {
		if spans["backend."+name] != 1 {
			t.Fatalf("backend.%s spans = %d, want 1", name, spans["backend."+name])
		}
	}
	win, ok := rec.LastKind(obs.KindPortfolioWin)
	if !ok || win.Detail != res.Winner {
		t.Fatalf("win event = %+v, want winner %q", win, res.Winner)
	}
}

// A race of one is how the service and the floorplan CLI run a single
// paradigm other than the default MILP: the contestant's verified
// floorplan comes back under its own name, at the race's fixed width.
// Every contestant computes the same floorplan in a full race as alone
// (the MILP at Workers: 1), and a full race waits for all of them, so
// it returns the lowest height of the races of one.
func TestSingleContestantRace(t *testing.T) {
	d := netlist.Random(8, 2)
	cfg := rand8Config()
	width := core.ChipWidthFor(d, cfg)
	alone := map[string]float64{}
	lowest := math.Inf(1)
	for _, name := range DefaultBackends() {
		res, err := Solve(context.Background(), d, cfg, Options{Backends: []string{name}, Seed: 2})
		if err != nil {
			t.Fatalf("race of %s: %v", name, err)
		}
		// A race of one keeps its contestant's own Source: the MILP's is
		// the branch and bound's, "bb".
		src := name
		if name == "milp" {
			src = "bb"
		}
		if res.Winner != name || res.Source != src {
			t.Fatalf("race of %s: winner %q, source %q", name, res.Winner, res.Source)
		}
		if math.Abs(res.ChipWidth-width) > 1e-9 {
			t.Fatalf("race of %s: chip width %v, want the race width %v", name, res.ChipWidth, width)
		}
		if v := res.Verify(); len(v) > 0 {
			t.Fatalf("race of %s: illegal floorplan: %v", name, v)
		}
		alone[name] = res.Height
		lowest = math.Min(lowest, res.Height)
	}

	full, err := Solve(context.Background(), d, cfg, Options{Seed: 2})
	if err != nil {
		t.Fatalf("full race: %v", err)
	}
	for _, b := range full.Backends {
		if b.Outcome != "finished" || math.Abs(b.Height-alone[b.Name]) > geom.Tol {
			t.Errorf("full race: %s ended %q at height %.6g, alone at %.6g", b.Name, b.Outcome, b.Height, alone[b.Name])
		}
	}
	if math.Abs(full.Height-lowest) > geom.Tol {
		t.Fatalf("full race height %.6g (winner %s), want the lowest race of one, %.6g",
			full.Height, full.Winner, lowest)
	}
}

// A race cancelled from outside still returns the best incumbent so far
// alongside ctx.Err(), and unknown contestants fail fast.
func TestSolveCancellationAndValidation(t *testing.T) {
	d := flex9()
	_, err := Solve(context.Background(), d, core.Config{}, Options{Backends: []string{"warp"}})
	if err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("unknown contestant error = %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	res, err := Solve(ctx, d, flex9Config(), Options{Seed: 11, Backends: []string{"anneal", "project"}})
	if err != nil && res == nil {
		t.Fatalf("cancelled race returned no result: %v", err)
	}
	if res != nil && res.Result != nil {
		if v := res.Result.Verify(); len(v) > 0 {
			t.Fatalf("cancelled race returned illegal floorplan: %v", v)
		}
	}
	// Only the caller's deadline stops a contestant early, and a race
	// that had one stopped returns the deadline's error.
	if res != nil {
		for _, b := range res.Backends {
			switch {
			case b.Outcome == "cancelled" && !errors.Is(err, context.DeadlineExceeded):
				t.Fatalf("backend %s cancelled, but the race returned %v", b.Name, err)
			case b.Outcome != "cancelled" && b.Outcome != "finished":
				t.Fatalf("backend %s ended %q (%s)", b.Name, b.Outcome, b.Err)
			}
		}
	}
}
