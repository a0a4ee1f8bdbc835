package portfolio

import (
	"context"
	"fmt"

	"afp/internal/anneal"
	"afp/internal/core"
	"afp/internal/mipmodel"
	"afp/internal/netlist"
	"afp/internal/obs"
)

// backend is one portfolio contestant. run solves the design at the
// race's fixed chip width, publishing every improving verified layout to
// the board, and returns its own best floorplan. An exact backend
// finishing without error has *proven* its answer optimal (or proven the
// board incumbent unbeatable, signalled by core.ErrDominated), which
// settles the race; heuristic backends merely finish.
type backend interface {
	name() string
	exact() bool
	run(ctx context.Context, d *netlist.Design, cfg core.Config, opts Options, board *Board, width float64) (*core.Result, error)
}

func newBackend(name string) (backend, error) {
	switch name {
	case "milp":
		return milpBackend{}, nil
	case "anneal", "seqpair":
		return annealBackend{name}, nil
	case "project":
		return projectBackend{}, nil
	}
	return nil, fmt.Errorf("portfolio: unknown backend %q (have milp, anneal, seqpair, project)", name)
}

// milpBackend runs the paper's successive augmentation with the board
// wired in as the external bound: every verified heuristic incumbent
// immediately tightens the per-step branch-and-bound cutoff, and when
// the board incumbent dominates everything a step can still reach the
// run concedes with core.ErrDominated instead of grinding on.
type milpBackend struct{}

func (milpBackend) name() string { return "milp" }
func (milpBackend) exact() bool  { return true }

func (milpBackend) run(ctx context.Context, d *netlist.Design, cfg core.Config, opts Options, board *Board, width float64) (res *core.Result, err error) {
	c := cfg
	c.ChipWidth = width
	c.ExternalBound = board.Best
	c.Obs = opts.Obs
	opts.Obs.Do(ctx, "backend.milp", obs.SpanAttrs{Detail: d.Name}, func(ctx context.Context) {
		res, err = core.FloorplanCtx(ctx, d, c)
	})
	if err == nil && res != nil {
		board.Publish("milp", res)
	}
	return res, err
}

// heuristicLambda maps the core objective onto the heuristics' HPWL
// weight: area-only races compare pure heights.
func heuristicLambda(cfg core.Config) float64 {
	if cfg.Objective == mipmodel.AreaWire {
		return cfg.WireWeight
	}
	return 0
}

// annealBackend races one of the two annealers at the fixed race width,
// publishing every improvement to the board as it cools: "anneal" is the
// Wong-Liu slicing annealer and "seqpair" the sequence-pair one, which
// explores general (non-slicing) packings.
type annealBackend struct{ id string }

func (b annealBackend) name() string { return b.id }
func (annealBackend) exact() bool    { return false }

func (b annealBackend) run(ctx context.Context, d *netlist.Design, cfg core.Config, opts Options, board *Board, width float64) (res *core.Result, err error) {
	c := anneal.Config{
		Seed:       opts.Seed,
		Lambda:     heuristicLambda(cfg),
		FixedWidth: width,
		Obs:        opts.Obs,
		Best:       func(r *core.Result) { board.Publish(b.id, r) },
	}
	attrs := obs.SpanAttrs{Detail: d.Name}
	if b.id == "seqpair" {
		opts.Obs.Do(ctx, "backend.seqpair", attrs, func(ctx context.Context) { res, err = anneal.SeqPairCtx(ctx, d, c) })
	} else {
		opts.Obs.Do(ctx, "backend.anneal", attrs, func(ctx context.Context) { res, err = anneal.FloorplanCtx(ctx, d, c) })
	}
	if res != nil {
		board.Publish(b.id, res)
	}
	return res, err
}

// projectBackend is the alternating-projection feasibility searcher (see
// project.go).
type projectBackend struct{}

func (projectBackend) name() string { return "project" }
func (projectBackend) exact() bool  { return false }

func (projectBackend) run(ctx context.Context, d *netlist.Design, cfg core.Config, opts Options, board *Board, width float64) (res *core.Result, err error) {
	opts.Obs.Do(ctx, "backend.project", obs.SpanAttrs{Detail: d.Name}, func(ctx context.Context) {
		res, err = project(ctx, d, opts.Seed, width, board)
	})
	return res, err
}
