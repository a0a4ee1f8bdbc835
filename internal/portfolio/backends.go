package portfolio

import (
	"context"
	"fmt"

	"afp/internal/anneal"
	"afp/internal/core"
	"afp/internal/mipmodel"
	"afp/internal/netlist"
	"afp/internal/obs"
	"afp/internal/seqpair"
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
	case "anneal":
		return annealBackend{}, nil
	case "seqpair":
		return seqpairBackend{}, nil
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

// annealBackend races the Wong-Liu slicing annealer at the fixed race
// width, publishing every improvement to the board as it cools.
type annealBackend struct{}

func (annealBackend) name() string { return "anneal" }
func (annealBackend) exact() bool  { return false }

func (annealBackend) run(ctx context.Context, d *netlist.Design, cfg core.Config, opts Options, board *Board, width float64) (res *core.Result, err error) {
	c := anneal.Config{
		Seed:       opts.Seed,
		Lambda:     heuristicLambda(cfg),
		FixedWidth: width,
		Obs:        opts.Obs,
		Best:       func(r *core.Result) { board.Publish("anneal", r) },
	}
	opts.Obs.Do(ctx, "backend.anneal", obs.SpanAttrs{Detail: d.Name}, func(ctx context.Context) {
		res, err = anneal.FloorplanCtx(ctx, d, c)
	})
	if res != nil {
		board.Publish("anneal", res)
	}
	return res, err
}

// seqpairBackend races the sequence-pair annealer, which explores
// general (non-slicing) packings, at the fixed race width.
type seqpairBackend struct{}

func (seqpairBackend) name() string { return "seqpair" }
func (seqpairBackend) exact() bool  { return false }

func (seqpairBackend) run(ctx context.Context, d *netlist.Design, cfg core.Config, opts Options, board *Board, width float64) (res *core.Result, err error) {
	c := seqpair.Config{
		Seed:       opts.Seed,
		Lambda:     heuristicLambda(cfg),
		FixedWidth: width,
		Obs:        opts.Obs,
		Best:       func(r *core.Result) { board.Publish("seqpair", r) },
	}
	opts.Obs.Do(ctx, "backend.seqpair", obs.SpanAttrs{Detail: d.Name}, func(ctx context.Context) {
		res, err = seqpair.FloorplanCtx(ctx, d, c)
	})
	if res != nil {
		board.Publish("seqpair", res)
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
