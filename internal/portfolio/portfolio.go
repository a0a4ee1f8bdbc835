// Package portfolio races heterogeneous floorplanning backends — the
// paper's successive-augmentation MILP, the slicing and sequence-pair
// annealers, and an alternating-projection feasibility searcher —
// concurrently on one instance with a shared incumbent board. Every
// contestant solves the same fixed-width instance and runs to its end;
// the board verifies every floorplan published to it, and the lowest
// verified height wins. The race compares legal floorplans and claims
// nothing more: successive augmentation proves each step's MILP
// optimal, never the whole floorplan, so no contestant ends a race.
//
// It is the one place a solution paradigm other than the paper's MILP
// is chosen: the service and the floorplan CLI run a single heuristic
// as a race of one (Options.Backends with one name), so it solves at
// the same fixed width and through the same verification gate as in a
// full race.
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"afp/internal/core"
	"afp/internal/netlist"
	"afp/internal/obs"
)

// Options tunes a portfolio race.
type Options struct {
	// Backends names the contestants; empty selects DefaultBackends.
	Backends []string
	// Seed drives the stochastic contestants.
	Seed int64
	// Obs receives the race telemetry: a "portfolio" root span, one
	// "backend.<name>" child span per contestant, portfolio.incumbent
	// events as the board improves and one portfolio.win event at the
	// end. Nil disables instrumentation.
	Obs *obs.Observer
}

// DefaultBackends is the contestant set of an unconfigured race: the
// paper's MILP plus every heuristic.
func DefaultBackends() []string { return []string{"milp", "anneal", "seqpair", "project"} }

// BackendResult records one contestant's outcome.
type BackendResult struct {
	Name string
	// Outcome is "finished" (the contestant ran to its end), "cancelled"
	// (the caller's context ended first) or "error".
	Outcome string
	// Height is the best verified height this backend published to the
	// board (+Inf when it never published).
	Height float64
	// Published counts its verified board publications.
	Published int
	// Nodes sums branch-and-bound nodes across augmentation steps (milp
	// only).
	Nodes int
	// Wall is the contestant's wall time until return.
	Wall time.Duration
	// Err carries the terminal error text for Outcome "error".
	Err string
}

// Result is the outcome of a portfolio race.
type Result struct {
	// Result is the winning floorplan; its Source is
	// "portfolio:<winner>".
	*core.Result
	// Winner names the backend whose floorplan won.
	Winner string
	// TTFF is the time from race start to the first verified feasible
	// incumbent, the portfolio's headline latency metric.
	TTFF time.Duration
	// Bound is the proven lower bound on the achievable height at race
	// end, and BoundSource who established it.
	Bound       float64
	BoundSource string
	// Backends holds one entry per contestant, in Options.Backends order.
	Backends []BackendResult
	// Incumbents is the board's improvement history; heights strictly
	// decrease and bound snapshots never do.
	Incumbents []Incumbent
	// Rejected counts candidates that failed verification.
	Rejected int
	// Elapsed is the whole race's wall time.
	Elapsed time.Duration
}

// Solve races the configured backends on d and returns the best verified
// floorplan together with the per-backend outcome table. Every
// contestant runs under ctx until it returns, and the race waits for all
// of them: only the caller's context ends a race early. On its
// cancellation or deadline the best floorplan so far rides along with
// ctx.Err(), matching core.FloorplanCtx's partial-result convention.
func Solve(ctx context.Context, d *netlist.Design, cfg core.Config, opts Options) (*Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	names := opts.Backends
	if len(names) == 0 {
		names = DefaultBackends()
	}
	bks := make([]backend, 0, len(names))
	for _, name := range names {
		b, err := newBackend(name)
		if err != nil {
			return nil, err
		}
		bks = append(bks, b)
	}
	width := core.ChipWidthFor(d, cfg)
	var (
		out *Result
		err error
	)
	opts.Obs.Do(ctx, "portfolio", obs.SpanAttrs{Detail: d.Name}, func(ctx context.Context) {
		out, err = race(ctx, d, cfg, opts, bks, width)
	})
	return out, err
}

func race(ctx context.Context, d *netlist.Design, cfg core.Config, opts Options, bks []backend, width float64) (*Result, error) {
	start := time.Now()
	board := NewBoard(d, width, opts.Obs)
	outcomes := make([]BackendResult, len(bks))
	var wg sync.WaitGroup
	for i, b := range bks {
		wg.Add(1)
		go func(i int, b backend) {
			defer wg.Done()
			t0 := time.Now()
			res, err := b.run(ctx, d, cfg, opts, board, width)
			br := BackendResult{Name: b.name(), Wall: time.Since(t0), Height: math.Inf(1)}
			if res != nil {
				for _, st := range res.Steps {
					br.Nodes += st.Nodes
				}
			}
			switch {
			case err == nil:
				br.Outcome = "finished"
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				br.Outcome = "cancelled"
			default:
				br.Outcome = "error"
				br.Err = err.Error()
			}
			if n, best, ok := board.publishedBy(b.name()); ok {
				br.Published, br.Height = n, best
			}
			outcomes[i] = br
		}(i, b)
	}
	wg.Wait()

	res := &Result{
		Backends:   outcomes,
		Incumbents: board.History(),
		Rejected:   board.Rejected(),
		Elapsed:    time.Since(start),
	}
	res.Bound, res.BoundSource = board.Bound()
	if ttff, ok := board.FirstFeasible(); ok {
		res.TTFF = ttff
	}

	best, winner, ok := board.Snapshot()
	if !ok {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("portfolio: no backend produced a feasible floorplan (%s)", outcomeSummary(outcomes))
	}
	if len(bks) > 1 {
		best.Source = "portfolio:" + winner
	}
	best.Elapsed = res.Elapsed
	res.Result = best
	res.Winner = winner

	opts.Obs.Emit(obs.Event{
		Kind: obs.KindPortfolioWin, Detail: winner,
		Height: best.Height, Bound: res.Bound,
		DurUS: res.Elapsed.Microseconds(),
	})
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

func outcomeSummary(outcomes []BackendResult) string {
	parts := make([]string, len(outcomes))
	for i, o := range outcomes {
		s := o.Name + ":" + o.Outcome
		if o.Err != "" {
			s += " " + o.Err
		}
		parts[i] = s
	}
	return strings.Join(parts, ", ")
}
