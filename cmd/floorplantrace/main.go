// Command floorplantrace analyzes a JSONL telemetry trace recorded by
// the -trace flag of the CLIs or fetched from GET /v1/jobs/{id}/trace:
// it reconstructs the span timing tree (solve → step → bb → worker),
// tabulates per-kind event counts, derives node throughput and
// gap-vs-time convergence tables, and diffs two traces.
//
// Usage:
//
//	floorplantrace [flags] trace.jsonl
//	floorplantrace -diff old.jsonl new.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"afp/internal/lp"
	"afp/internal/obs"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "floorplantrace:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("floorplantrace", flag.ContinueOnError)
	var (
		diff   = fs.Bool("diff", false, "compare two traces: floorplantrace -diff old.jsonl new.jsonl")
		slices = fs.Int("slices", 10, "time slices of the node-throughput table")
		tree   = fs.Bool("tree", true, "print the span timing tree")
		kinds  = fs.Bool("kinds", true, "print per-kind event counts")
		rate   = fs.Bool("rate", true, "print the node-throughput table")
		gap    = fs.Bool("gap", true, "print the gap-vs-time table")
		pf     = fs.Bool("portfolio", true, "print the portfolio race table (win rates, incumbents, TTFF)")
	)
	fs.SetOutput(os.Stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *diff {
		if fs.NArg() != 2 {
			return fmt.Errorf("-diff needs exactly two trace files, got %d", fs.NArg())
		}
		a, err := readTrace(fs.Arg(0))
		if err != nil {
			return err
		}
		b, err := readTrace(fs.Arg(1))
		if err != nil {
			return err
		}
		printDiff(w, fs.Arg(0), a, fs.Arg(1), b)
		return nil
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("need exactly one trace file (or -diff with two), got %d", fs.NArg())
	}
	events, err := readTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trace %s: %d events over %s\n", fs.Arg(0), len(events), fmtUS(traceSpanUS(events)))
	if *tree {
		printTree(w, events)
	}
	if *kinds {
		printKinds(w, events)
	}
	if *rate {
		printThroughput(w, events, *slices)
	}
	if *gap {
		printGap(w, events)
	}
	if *pf {
		printPortfolio(w, events)
	}
	return nil
}

// printPortfolio tabulates portfolio races: per-backend win rates from
// portfolio.win events, and the incumbent improvement timeline (who
// published which height when, time to first feasible) from
// portfolio.incumbent events. Traces without races print nothing.
func printPortfolio(w io.Writer, events []obs.Event) {
	type stat struct {
		wins       int
		incumbents int
		firsts     int
		best       float64
	}
	stats := map[string]*stat{}
	get := func(name string) *stat {
		s := stats[name]
		if s == nil {
			s = &stat{best: math.Inf(1)}
			stats[name] = s
		}
		return s
	}
	races, ttffN := 0, 0
	var ttffUS int64
	var incumbents []obs.Event
	for _, e := range events {
		switch e.Kind {
		case obs.KindPortfolioWin:
			get(e.Detail).wins++
			races++
		case obs.KindPortfolioIncumbent:
			s := get(e.Detail)
			s.incumbents++
			if e.Height < s.best {
				s.best = e.Height
			}
			if e.First {
				s.firsts++
				ttffUS += e.DurUS
				ttffN++
			}
			incumbents = append(incumbents, e)
		}
	}
	if len(stats) == 0 {
		return
	}
	fmt.Fprintf(w, "\nportfolio races (%d):\n", races)
	fmt.Fprintf(w, "  %-10s %8s %8s %11s %6s %10s\n", "backend", "wins", "winrate", "incumbents", "first", "best")
	for _, name := range sortedKeys(stats) {
		s := stats[name]
		rate := "-"
		if races > 0 {
			rate = fmt.Sprintf("%.0f%%", 100*float64(s.wins)/float64(races))
		}
		best := "-"
		if !math.IsInf(s.best, 1) {
			best = fmt.Sprintf("%.4g", s.best)
		}
		fmt.Fprintf(w, "  %-10s %8d %8s %11d %6d %10s\n", name, s.wins, rate, s.incumbents, s.firsts, best)
	}
	if ttffN > 0 {
		fmt.Fprintf(w, "  time to first feasible: %s mean over %d race(s)\n", fmtUS(ttffUS/int64(ttffN)), ttffN)
	}
	fmt.Fprintf(w, "\nincumbent timeline:\n")
	for _, e := range incumbents {
		mark := ""
		if e.First {
			mark = "  (first feasible)"
		}
		fmt.Fprintf(w, "  %10s  %-10s height %-10.4g bound %.4g%s\n", fmtUS(e.DurUS), e.Detail, e.Height, e.Bound, mark)
	}
}

func readTrace(path string) ([]obs.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return obs.ReadJSONL(f)
}

// traceSpanUS is the trace's wall-clock extent: the largest event
// timestamp (the trace clock starts at the observer's birth).
func traceSpanUS(events []obs.Event) int64 {
	var max int64
	for _, e := range events {
		if e.T > max {
			max = e.T
		}
	}
	return max
}

// span is one reconstructed timing-tree node.
type span struct {
	id, parent int64
	name       string
	detail     string
	step       int
	worker     int
	startUS    int64
	durUS      int64 // -1 while open (no span.end seen)
	children   []*span
	// lp.solve events linked to this span and their cumulative
	// duration; those stopped at the iteration limit count apart.
	lpCount, limCount int
	lpUS, limUS       int64
}

// buildTree reconstructs the span forest of a trace. Spans without a
// span.end (error paths, truncated traces) stay open with durUS -1;
// spans whose parent is missing from the trace surface as roots.
func buildTree(events []obs.Event) []*span {
	byID := map[int64]*span{}
	var order []*span
	for _, e := range events {
		switch e.Kind {
		case obs.KindSpanStart:
			sp := &span{
				id: e.Span, parent: e.Parent, name: e.Name, detail: e.Detail,
				step: e.Step, worker: e.Worker, startUS: e.T, durUS: -1,
			}
			byID[e.Span] = sp
			order = append(order, sp)
		case obs.KindSpanEnd:
			if sp := byID[e.Span]; sp != nil {
				sp.durUS = e.DurUS
			}
		case obs.KindLPSolve:
			sp := byID[e.Span]
			switch {
			case sp == nil:
			case e.Status == lp.StatusIterLimit.String():
				sp.limCount++
				sp.limUS += e.DurUS
			default:
				sp.lpCount++
				sp.lpUS += e.DurUS
			}
		}
	}
	var roots []*span
	for _, sp := range order {
		if parent := byID[sp.parent]; parent != nil {
			parent.children = append(parent.children, sp)
		} else {
			roots = append(roots, sp)
		}
	}
	return roots
}

func (sp *span) label() string {
	var b strings.Builder
	b.WriteString(sp.name)
	switch {
	case sp.detail != "":
		fmt.Fprintf(&b, " (%s)", sp.detail)
	case sp.name == "step" || sp.name == "adjust":
		fmt.Fprintf(&b, " %d", sp.step)
	}
	if sp.worker > 0 && sp.name != "bb" {
		fmt.Fprintf(&b, " #%d", sp.worker)
	}
	return b.String()
}

func printTree(w io.Writer, events []obs.Event) {
	roots := buildTree(events)
	fmt.Fprintf(w, "\nspan tree:\n")
	if len(roots) == 0 {
		fmt.Fprintln(w, "  (no spans in trace)")
		return
	}
	var walk func(sp *span, depth int)
	walk = func(sp *span, depth int) {
		dur := "(open)"
		if sp.durUS >= 0 {
			dur = fmtUS(sp.durUS)
		}
		line := fmt.Sprintf("%s%-*s %10s", strings.Repeat("  ", depth+1), 36-2*depth, sp.label(), dur)
		// Iteration-limit solves are counted apart: averaged in, one
		// stalled LP would read as many slow ones.
		var lps []string
		if sp.lpCount > 0 {
			lps = append(lps, fmt.Sprintf("%d x %s", sp.lpCount, fmtUS(sp.lpUS/int64(sp.lpCount))))
		}
		if sp.limCount > 0 {
			lps = append(lps, fmt.Sprintf("%d iteration-limit x %s", sp.limCount, fmtUS(sp.limUS/int64(sp.limCount))))
		}
		if len(lps) > 0 {
			line += "   [lp " + strings.Join(lps, ", ") + "]"
		}
		fmt.Fprintln(w, line)
		sort.Slice(sp.children, func(i, j int) bool { return sp.children[i].startUS < sp.children[j].startUS })
		for _, c := range sp.children {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}

func printKinds(w io.Writer, events []obs.Event) {
	counts := kindCounts(events)
	durs := map[string]int64{}
	for _, e := range events {
		if e.DurUS > 0 && e.Kind != obs.KindSpanEnd {
			durs[string(e.Kind)] += e.DurUS
		}
	}
	fmt.Fprintf(w, "\nevents by kind:\n")
	for _, k := range sortedKeys(counts) {
		line := fmt.Sprintf("  %-18s %8d", k, counts[k])
		if d := durs[k]; d > 0 {
			line += fmt.Sprintf("   total %s", fmtUS(d))
		}
		fmt.Fprintln(w, line)
	}
}

func kindCounts(events []obs.Event) map[string]int {
	counts := map[string]int{}
	for _, e := range events {
		counts[string(e.Kind)]++
	}
	return counts
}

// printThroughput slices the trace extent and counts node.close events
// per slice, exposing search stalls (a slice with near-zero closes while
// LP time accumulates) at a glance.
func printThroughput(w io.Writer, events []obs.Event, slices int) {
	if slices < 1 {
		slices = 10
	}
	extent := traceSpanUS(events)
	if extent == 0 {
		return
	}
	closes := make([]int, slices)
	total := 0
	for _, e := range events {
		if e.Kind != obs.KindNodeClose {
			continue
		}
		i := int(e.T * int64(slices) / (extent + 1))
		closes[i]++
		total++
	}
	if total == 0 {
		return
	}
	fmt.Fprintf(w, "\nnode throughput (%d closes):\n", total)
	sliceUS := extent / int64(slices)
	for i, n := range closes {
		rate := float64(n) / (float64(sliceUS) / 1e6)
		fmt.Fprintf(w, "  %10s  %6d nodes  %8.0f/s\n", fmtUS(int64(i)*sliceUS), n, rate)
	}
}

// printGap tabulates bound convergence from progress events: the
// incumbent objective, proven bound and relative gap over trace time.
func printGap(w io.Writer, events []obs.Event) {
	var rows []obs.Event
	for _, e := range events {
		if e.Kind == obs.KindProgress {
			rows = append(rows, e)
		}
	}
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "\ngap vs time (%d probes):\n", len(rows))
	fmt.Fprintf(w, "  %10s %10s %14s %14s %9s\n", "t", "nodes", "incumbent", "bound", "gap")
	for _, e := range rows {
		inc := "-"
		if e.Obj != 0 {
			inc = fmt.Sprintf("%.4g", e.Obj)
		}
		g := "-"
		if e.Obj != 0 && !math.IsInf(e.Gap, 0) && !math.IsNaN(e.Gap) {
			g = fmt.Sprintf("%.3g%%", 100*e.Gap)
		}
		fmt.Fprintf(w, "  %10s %10d %14s %14.6g %9s\n", fmtUS(e.T), e.Nodes, inc, e.Bound, g)
	}
}

// printDiff compares two traces: per-kind event counts and per-span-name
// aggregate durations, with relative deltas.
func printDiff(w io.Writer, nameA string, a []obs.Event, nameB string, b []obs.Event) {
	fmt.Fprintf(w, "diff %s (%d events, %s) -> %s (%d events, %s)\n",
		nameA, len(a), fmtUS(traceSpanUS(a)), nameB, len(b), fmtUS(traceSpanUS(b)))

	ca, cb := kindCounts(a), kindCounts(b)
	fmt.Fprintf(w, "\nevents by kind:\n")
	fmt.Fprintf(w, "  %-18s %10s %10s %9s\n", "kind", "old", "new", "delta")
	for _, k := range sortedKeys(merged(ca, cb)) {
		fmt.Fprintf(w, "  %-18s %10d %10d %9s\n", k, ca[k], cb[k], deltaPct(float64(ca[k]), float64(cb[k])))
	}

	da, db := spanDurations(a), spanDurations(b)
	if len(da)+len(db) == 0 {
		return
	}
	fmt.Fprintf(w, "\nspan time by name:\n")
	fmt.Fprintf(w, "  %-18s %10s %10s %9s\n", "span", "old", "new", "delta")
	for _, k := range sortedKeys(merged(da, db)) {
		fmt.Fprintf(w, "  %-18s %10s %10s %9s\n", k, fmtUS(da[k]), fmtUS(db[k]), deltaPct(float64(da[k]), float64(db[k])))
	}
}

// spanDurations aggregates closed-span time by span name.
func spanDurations(events []obs.Event) map[string]int64 {
	out := map[string]int64{}
	for _, e := range events {
		if e.Kind == obs.KindSpanEnd {
			out[e.Name] += e.DurUS
		}
	}
	return out
}

func merged[V any](a, b map[string]V) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func deltaPct(old, new float64) string {
	switch {
	case old == 0 && new == 0:
		return "-"
	case old == 0:
		return "+inf%"
	}
	return fmt.Sprintf("%+.1f%%", 100*(new-old)/old)
}

// fmtUS renders a microsecond duration with a unit fitting its size.
func fmtUS(us int64) string {
	switch {
	case us >= 10_000_000:
		return fmt.Sprintf("%.2fs", float64(us)/1e6)
	case us >= 10_000:
		return fmt.Sprintf("%.1fms", float64(us)/1e3)
	default:
		return fmt.Sprintf("%dus", us)
	}
}
