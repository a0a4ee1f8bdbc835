package portfolio

import (
	"context"
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

// The race-mode stress test: race all four backends on the 9-module
// flexible design and check the portfolio contract under any
// interleaving — the answer is never worse than milp-alone, a milp win
// reproduces the milp-alone height exactly, the milp contestant never
// visits more nodes than the cold solve, incumbents strictly improve,
// and every contestant ends in a terminal outcome.
func TestRaceStressFlex9(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second race")
	}
	d := flex9()
	cfg := flex9Config()
	alone, err := core.FloorplanCtx(context.Background(), d, cfg)
	if err != nil {
		t.Fatalf("milp-alone: %v", err)
	}
	aloneNodes := 0
	for _, s := range alone.Steps {
		aloneNodes += s.Nodes
	}

	rec := &obs.Recorder{}
	res, err := Solve(context.Background(), d, cfg, Options{Seed: 7, Obs: obs.New(rec)})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if v := res.Result.Verify(); len(v) > 0 {
		t.Fatalf("winning floorplan is illegal: %v", v)
	}

	// (a) The race never loses to milp-alone, and when milp itself wins
	// the heights are identical — same trajectory, same optimum.
	if res.Height > alone.Height+geom.Tol {
		t.Fatalf("race height %.6g worse than milp-alone %.6g", res.Height, alone.Height)
	}
	if res.Winner == "milp" && math.Abs(res.Height-alone.Height) > geom.Tol {
		t.Fatalf("milp won with height %.6g, but milp-alone gives %.6g", res.Height, alone.Height)
	}
	if want := "portfolio:" + res.Winner; res.Result.Source != want {
		t.Fatalf("winner source = %q, want %q", res.Result.Source, want)
	}

	// (b) Proven bound monotone non-decreasing across incumbent
	// injections, and every incumbent strictly improves.
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

	// (c) External pruning only removes nodes: the racing milp contestant
	// never visits more than the cold solve. And every backend ended in a
	// terminal outcome (a cancelled loser released its workers — Solve
	// returned, so no goroutine is still holding any).
	terminal := map[string]bool{
		"optimal": true, "dominated": true, "finished": true,
		"cancelled": true, "budget": true, "error": true,
	}
	if len(res.Backends) != 4 {
		t.Fatalf("backend results = %d, want 4", len(res.Backends))
	}
	for _, b := range res.Backends {
		if !terminal[b.Outcome] {
			t.Fatalf("backend %s has non-terminal outcome %q", b.Name, b.Outcome)
		}
		if b.Outcome == "error" {
			t.Fatalf("backend %s errored: %s", b.Name, b.Err)
		}
		if b.Name == "milp" && b.Nodes > aloneNodes {
			t.Fatalf("racing milp visited %d nodes, cold solve only %d", b.Nodes, aloneNodes)
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
	for _, name := range DefaultBackends() {
		if spans["backend."+name] != 1 {
			t.Fatalf("backend.%s spans = %d, want 1", name, spans["backend."+name])
		}
	}
	win, ok := (&recorderWrap{rec}).lastKind(obs.KindPortfolioWin)
	if !ok || win.Detail != res.Winner {
		t.Fatalf("win event = %+v, want winner %q", win, res.Winner)
	}
}

// recorderWrap adapts Recorder.LastKind through an interface-stable
// helper (keeps the test readable if the Recorder API grows).
type recorderWrap struct{ r *obs.Recorder }

func (w *recorderWrap) lastKind(k obs.Kind) (obs.Event, bool) { return w.r.LastKind(k) }

// A dominated milp contestant is a successful concession, not an error,
// and the step trace of the conceding run labels the external owner.
func TestRaceMilpConcedesToHeuristics(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second race")
	}
	d := flex9()
	cfg := flex9Config()
	res, err := Solve(context.Background(), d, cfg, Options{Seed: 3})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	var milpR *BackendResult
	for i := range res.Backends {
		if res.Backends[i].Name == "milp" {
			milpR = &res.Backends[i]
		}
	}
	if milpR == nil {
		t.Fatal("no milp backend result")
	}
	switch milpR.Outcome {
	case "optimal", "dominated", "cancelled":
	default:
		t.Fatalf("milp outcome = %q", milpR.Outcome)
	}
	if milpR.Outcome == "dominated" && res.Winner == "milp" {
		t.Fatal("dominated milp cannot win the race")
	}
}

// A race of one is how the service and the floorplan CLI run a single
// heuristic: the contestant's verified floorplan comes back under its
// own name, at the race's fixed width.
func TestSingleContestantRace(t *testing.T) {
	d := flex9()
	width := core.ChipWidthFor(d, core.Config{})
	for _, name := range []string{"anneal", "seqpair", "project"} {
		res, err := Solve(context.Background(), d, core.Config{}, Options{Backends: []string{name}, Seed: 5})
		if err != nil {
			t.Fatalf("race of %s: %v", name, err)
		}
		if res.Winner != name || res.Source != name {
			t.Fatalf("race of %s: winner %q, source %q", name, res.Winner, res.Source)
		}
		if math.Abs(res.ChipWidth-width) > 1e-9 {
			t.Fatalf("race of %s: chip width %v, want the race width %v", name, res.ChipWidth, width)
		}
		if v := res.Verify(); len(v) > 0 {
			t.Fatalf("race of %s: illegal floorplan: %v", name, v)
		}
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
}

// Per-backend budgets are honored: a microscopic milp budget forces a
// budget outcome while the heuristics still finish.
func TestBackendBudget(t *testing.T) {
	d := flex9()
	res, err := Solve(context.Background(), d, flex9Config(), Options{
		Seed:     1,
		Backends: []string{"milp", "project"},
		Budget:   map[string]time.Duration{"milp": time.Microsecond},
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for _, b := range res.Backends {
		if b.Name == "milp" && b.Outcome != "budget" && b.Outcome != "dominated" {
			t.Fatalf("milp outcome under 1us budget = %q, want budget", b.Outcome)
		}
	}
	if res.Winner != "project" {
		t.Fatalf("winner = %q, want project (milp was starved)", res.Winner)
	}
}
