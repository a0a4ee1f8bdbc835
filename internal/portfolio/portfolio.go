// Package portfolio races heterogeneous floorplanning backends — the
// paper's exact successive-augmentation MILP, the slicing and
// sequence-pair annealers, and an alternating-projection feasibility
// searcher — concurrently on one instance with a shared incumbent board
// (algorithm-portfolio bound sharing in the style of Huchette, Dey and
// Vielma). Every contestant solves the same fixed-width instance; any
// backend publishing a *verified* feasible height immediately tightens
// the MILP's branch-and-bound cutoff through milp.Options.External, and
// when the exact backend proves its answer (optimality or domination of
// the incumbent) the losers are context-cancelled.
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
	"sync/atomic"
	"time"

	"afp/internal/core"
	"afp/internal/geom"
	"afp/internal/netlist"
	"afp/internal/obs"
)

// Options tunes a portfolio race.
type Options struct {
	// Backends names the contestants; empty selects DefaultBackends.
	Backends []string
	// Budget caps individual contestants' wall time by name; missing or
	// zero entries leave only the surrounding context's deadline.
	Budget map[string]time.Duration
	// Seed drives the stochastic contestants.
	Seed int64
	// Obs receives the race telemetry: a "portfolio" root span, one
	// "backend.<name>" child span per contestant, portfolio.incumbent
	// events as the board improves and one portfolio.win event at the
	// end. Nil disables instrumentation.
	Obs *obs.Observer
}

// DefaultBackends is the contestant set of an unconfigured race: the
// exact solver plus every heuristic.
func DefaultBackends() []string { return []string{"milp", "anneal", "seqpair", "project"} }

// BackendResult records one contestant's outcome.
type BackendResult struct {
	Name string
	// Outcome is "optimal" (exact backend finished and proved its
	// answer), "dominated" (exact backend proved the board incumbent
	// unbeatable and conceded), "finished" (heuristic ran its course),
	// "cancelled" (lost the race and was context-cancelled), "budget"
	// (per-backend budget expired) or "error".
	Outcome string
	// Height is the best verified height this backend published to the
	// board (+Inf when it never published).
	Height float64
	// Published counts its verified board publications.
	Published int
	// Nodes sums branch-and-bound nodes across augmentation steps (exact
	// backend only).
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
// floorplan together with the per-backend outcome table. The race ends
// when the exact backend proves its answer (remaining contestants are
// cancelled) or when every contestant returns. On context cancellation
// the best floorplan so far rides along with ctx.Err(), matching
// core.FloorplanCtx's partial-result convention.
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
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// settled flips before cancel() fires, so losers observing their
	// context's cancellation can tell "lost the race" from an outside
	// cancel (the channel close orders the store before their load).
	var settled atomic.Bool
	outcomes := make([]BackendResult, len(bks))
	finals := make([]*core.Result, len(bks))
	var wg sync.WaitGroup
	for i, b := range bks {
		wg.Add(1)
		go func(i int, b backend) {
			defer wg.Done()
			bctx := raceCtx
			budget := opts.Budget[b.name()]
			if budget > 0 {
				var cancelB context.CancelFunc
				bctx, cancelB = context.WithTimeout(bctx, budget)
				defer cancelB()
			}
			t0 := time.Now()
			res, err := b.run(bctx, d, cfg, opts, board, width)
			br := BackendResult{Name: b.name(), Wall: time.Since(t0), Height: math.Inf(1)}
			if res != nil {
				for _, st := range res.Steps {
					br.Nodes += st.Nodes
				}
			}
			proven := b.exact() && (err == nil || errors.Is(err, core.ErrDominated))
			switch {
			case err == nil && b.exact():
				br.Outcome = "optimal"
			case errors.Is(err, core.ErrDominated):
				br.Outcome = "dominated"
			case err == nil:
				br.Outcome = "finished"
			case errors.Is(err, context.DeadlineExceeded) && bctx.Err() != nil && raceCtx.Err() == nil:
				br.Outcome = "budget"
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
			finals[i] = res
			if proven {
				// The exact backend settled the race: cancel the losers so
				// their workers return to the pool immediately.
				settled.Store(true)
				cancel()
			}
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

	best, bestSrc, ok := board.Snapshot()
	if !ok {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("portfolio: no backend produced a feasible floorplan (%s)", outcomeSummary(outcomes))
	}
	// The exact backend wins ties: if it completed optimally and its
	// height matches the board best, the answer is its (proven) result,
	// steps and all.
	winner, winRes := bestSrc, best
	for i, b := range bks {
		if b.exact() && outcomes[i].Outcome == "optimal" && finals[i] != nil &&
			finals[i].Height <= best.Height+geom.Tol {
			winner, winRes = b.name(), finals[i]
			break
		}
	}
	if len(bks) > 1 {
		winRes.Source = "portfolio:" + winner
	}
	res.Result = winRes
	res.Winner = winner
	res.Result.Elapsed = res.Elapsed

	opts.Obs.Emit(obs.Event{
		Kind: obs.KindPortfolioWin, Detail: winner,
		Height: winRes.Height, Bound: res.Bound,
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
