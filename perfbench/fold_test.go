package main

import (
	"testing"

	"afp/internal/obs"
)

func start(t, id, parent int64, name, detail string, workers int) obs.Event {
	return obs.Event{Kind: obs.KindSpanStart, T: t, Span: id, Parent: parent, Name: name, Detail: detail, Worker: workers}
}

func end(t, id int64, dur int64) obs.Event {
	return obs.Event{Kind: obs.KindSpanEnd, T: t, Span: id, DurUS: dur}
}

func lpSolve(span, dur int64, iters int, status string) obs.Event {
	return obs.Event{Kind: obs.KindLPSolve, Span: span, DurUS: dur, Iters: iters,
		DualPivots: iters, Degenerate: iters / 2, Refactors: 1, Status: status}
}

func fold(events ...obs.Event) FoldTotals {
	f := NewFold()
	for _, e := range events {
		f.Emit(e)
	}
	return f.Totals()
}

func TestFoldSelfTimeAndLPAttribution(t *testing.T) {
	got := fold(
		start(0, 1, 0, "solve", "rand8", 0),
		start(10, 2, 1, "step", "", 0),
		start(20, 3, 2, "presolve", "model", 0),
		end(50, 3, 30),
		obs.Event{Kind: obs.KindPresolve, Detail: "model", Fixed: 4},
		obs.Event{Kind: obs.KindPresolve, Detail: "propagate", Fixed: 9},
		start(60, 4, 2, "bb", "", 1),
		lpSolve(4, 100, 10, "optimal"),
		lpSolve(4, 50, 6, "iteration-limit"),
		end(360, 4, 300),
		end(400, 2, 390),
		// A root span of its own, as the benchmark wraps the adjust call.
		start(410, 5, 0, "adjust", "", 0),
		lpSolve(5, 200, 40, "optimal"),
		end(620, 5, 210),
		end(630, 99, 5),                 // end without a start
		lpSolve(77, 1, 1, "optimal"),    // LP outside any known span
		start(640, 7, 1, "step", "", 0), // never ends
		end(700, 1, 700),
	)
	wantSelf := map[string]int64{
		"presolve.model": 30,
		"bb":             300,
		"step":           390 - 30 - 300,
		"solve":          700 - 390,
		"adjust":         210,
	}
	for layer, want := range wantSelf {
		if got.Self[layer] != want {
			t.Errorf("self[%s] = %d, want %d", layer, got.Self[layer], want)
		}
	}
	checks := []struct {
		name      string
		got, want int64
	}{
		{"lp in bb", got.LPInBBUS, 150},
		{"lp in adjust", got.LPInAdjustUS, 200},
		{"lp total", got.LPUS, 351},
		{"lp max", got.LPMaxUS, 200},
		{"lp solves", int64(got.LPSolves), 4},
		{"iteration limits", int64(got.LPIterLimit), 1},
		{"adjust iterations", int64(got.AdjustIters), 40},
		{"model-presolve fixed binaries", int64(got.ModelFixed), 4},
		{"orphans", int64(got.Orphans), 2},
		{"open spans", int64(got.Open), 1},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

func TestFoldOverlappingWorkers(t *testing.T) {
	got := fold(
		start(0, 1, 0, "bb", "", 2),
		start(100, 2, 1, "bb.worker", "", 1),
		start(200, 3, 1, "bb.worker", "", 2),
		lpSolve(2, 300, 5, "optimal"),
		lpSolve(3, 400, 5, "optimal"),
		end(900, 2, 800),
		end(1000, 3, 800),
		obs.Event{Kind: obs.KindSearchParallel, Workers: 2, IdleUS: 150},
		end(1000, 1, 1000),
	)
	// The workers cover [100, 1000] of the bb span's [0, 1000].
	if got.Self["bb"] != 100 {
		t.Errorf("self[bb] = %d, want 100", got.Self["bb"])
	}
	if got.Self["bb.worker"] != 1600 {
		t.Errorf("self[bb.worker] = %d, want 1600", got.Self["bb.worker"])
	}
	if got.LPInBBUS != 700 || got.IdleUS != 150 || got.ParallelUS != 2000 {
		t.Errorf("lp in bb %d, idle %d, parallel capacity %d; want 700, 150, 2000",
			got.LPInBBUS, got.IdleUS, got.ParallelUS)
	}
}

func TestCovered(t *testing.T) {
	cases := []struct {
		iv     [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{2, 4}, {6, 8}}, 0, 10, 4},
		{[][2]int64{{6, 8}, {2, 7}}, 0, 10, 6},
		{[][2]int64{{-5, 3}, {9, 20}}, 0, 10, 4},
		{[][2]int64{{1, 2}, {1, 2}}, 0, 10, 1},
	}
	for _, c := range cases {
		if got := covered(c.iv, c.lo, c.hi); got != c.want {
			t.Errorf("covered(%v, %d, %d) = %d, want %d", c.iv, c.lo, c.hi, got, c.want)
		}
	}
}

func TestFoldTotalsAdd(t *testing.T) {
	var sum FoldTotals
	sum.add(fold(start(0, 1, 0, "bb", "", 1), lpSolve(1, 30, 3, "optimal"), end(50, 1, 50)))
	sum.add(fold(start(0, 1, 0, "bb", "", 1), lpSolve(1, 70, 7, "optimal"), end(90, 1, 90)))
	if sum.Self["bb"] != 140 || sum.LPInBBUS != 100 || sum.LPSolves != 2 || sum.LPMaxUS != 70 {
		t.Errorf("self[bb] %d, lp in bb %d, lp solves %d, lp max %d; want 140, 100, 2, 70",
			sum.Self["bb"], sum.LPInBBUS, sum.LPSolves, sum.LPMaxUS)
	}
}
