package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"afp/internal/obs"
)

// writeTrace records a small synthetic solve through the real observer
// so the fixture exercises the same encoder the solvers use.
func writeTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(obs.NewJSONLWriter(f))
	ctx, root := o.StartSpanAttrs(context.Background(), "solve", obs.SpanAttrs{Detail: "fixture"})
	stepCtx, step := o.StartSpanAttrs(ctx, "step", obs.SpanAttrs{Step: 0})
	o.Emit(obs.Event{Kind: obs.KindLPSolve, Span: obs.SpanID(stepCtx), Iters: 5, DurUS: 40})
	o.Emit(obs.Event{Kind: obs.KindNodeClose, Node: 1, Depth: 1})
	o.Emit(obs.Event{Kind: obs.KindNodeClose, Node: 2, Depth: 2})
	o.Emit(obs.Event{Kind: obs.KindProgress, Nodes: 2, Obj: 12, Bound: 10, Gap: 0.2})
	o.Emit(obs.Event{Kind: obs.KindProgress, Nodes: 4, Obj: 11, Bound: 10.5, Gap: 0.05})
	step.End()
	// A span deliberately left open: error paths and truncated traces
	// produce these, and the tree must tolerate them.
	o.StartSpan(ctx, "bb")
	root.End()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSingleTrace(t *testing.T) {
	path := writeTrace(t)
	var sb strings.Builder
	if err := run(&sb, []string{path}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"span tree:",
		"solve (fixture)",
		"step 0",
		"(open)", // the un-ended bb span
		"[lp 1 x 40us]",
		"events by kind:",
		"node.close",
		"gap vs time (2 probes):",
		"20%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunDiff(t *testing.T) {
	a := writeTrace(t)
	b := writeTrace(t)
	var sb strings.Builder
	if err := run(&sb, []string{"-diff", a, b}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"events by kind:", "span time by name:", "solve", "delta"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, []string{}); err == nil {
		t.Error("no args: want error")
	}
	if err := run(&sb, []string{"/does/not/exist.jsonl"}); err == nil {
		t.Error("missing file: want error")
	}
	if err := run(&sb, []string{"-diff", "only-one.jsonl"}); err == nil {
		t.Error("-diff with one file: want error")
	}
}

func TestBuildTreeParentsAndAttribution(t *testing.T) {
	events := []obs.Event{
		{Kind: obs.KindSpanStart, Span: 1, Name: "solve"},
		{Kind: obs.KindSpanStart, Span: 2, Parent: 1, Name: "step"},
		{Kind: obs.KindLPSolve, Span: 2, DurUS: 100},
		{Kind: obs.KindLPSolve, Span: 2, DurUS: 50},
		{Kind: obs.KindSpanEnd, Span: 2, Parent: 1, Name: "step", DurUS: 300},
		{Kind: obs.KindSpanEnd, Span: 1, Name: "solve", DurUS: 400},
		// Parent 99 is missing from the trace: surfaces as a root.
		{Kind: obs.KindSpanStart, Span: 3, Parent: 99, Name: "orphan"},
	}
	roots := buildTree(events)
	if len(roots) != 2 {
		t.Fatalf("roots = %d, want 2", len(roots))
	}
	solve := roots[0]
	if solve.name != "solve" || solve.durUS != 400 || len(solve.children) != 1 {
		t.Fatalf("bad solve root: %+v", solve)
	}
	step := solve.children[0]
	if step.lpCount != 2 || step.lpUS != 150 {
		t.Errorf("step lp attribution = %d solves / %dus, want 2 / 150us", step.lpCount, step.lpUS)
	}
	if roots[1].name != "orphan" || roots[1].durUS != -1 {
		t.Errorf("orphan root: %+v", roots[1])
	}
}

// An LP stopped at its iteration limit must not vanish into the span's
// average: the tree counts such solves apart, and a span without any
// prints exactly as before.
func TestTreeFlagsIterationLimitLPs(t *testing.T) {
	events := []obs.Event{
		{Kind: obs.KindSpanStart, Span: 1, Name: "solve"},
		{Kind: obs.KindSpanStart, Span: 2, Parent: 1, Name: "adjust", Step: 1},
		{Kind: obs.KindSpanStart, Span: 3, Parent: 1, Name: "adjust", Step: 2},
		{Kind: obs.KindSpanStart, Span: 4, Parent: 1, Name: "step", Step: 3},
	}
	for i := 0; i < 4; i++ {
		events = append(events, obs.Event{Kind: obs.KindLPSolve, Span: 2, Status: "optimal", DurUS: 12_000})
	}
	events = append(events,
		obs.Event{Kind: obs.KindLPSolve, Span: 2, Status: "iteration-limit", DurUS: 40_000_000},
		obs.Event{Kind: obs.KindLPSolve, Span: 2, Status: "iteration-limit", DurUS: 40_740_000},
		obs.Event{Kind: obs.KindLPSolve, Span: 3, Status: "iteration-limit", DurUS: 80_400_000},
		obs.Event{Kind: obs.KindLPSolve, Span: 4, Status: "optimal", DurUS: 100},
		obs.Event{Kind: obs.KindLPSolve, Span: 4, Status: "infeasible", DurUS: 50},
	)
	var sb strings.Builder
	printTree(&sb, events)
	out := sb.String()
	for _, want := range []string{
		"(open)   [lp 4 x 12.0ms, 2 iteration-limit x 40.37s]\n",
		"(open)   [lp 1 iteration-limit x 80.40s]\n",
		"(open)   [lp 2 x 75us]\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("span tree missing %q:\n%s", want, out)
		}
	}
}
