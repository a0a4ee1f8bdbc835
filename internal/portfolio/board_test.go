package portfolio

import (
	"math"
	"testing"

	"afp/internal/core"
	"afp/internal/geom"
	"afp/internal/netlist"
	"afp/internal/obs"
)

// boardDesign is a 3-rigid-module fixture; every module is 4x2.
func boardDesign() *netlist.Design {
	d := &netlist.Design{Name: "board"}
	for _, name := range []string{"a", "b", "c"} {
		d.Modules = append(d.Modules, netlist.Module{Name: name, Kind: netlist.Rigid, W: 4, H: 2})
	}
	return d
}

// legalStack places the three modules in a legal stack of the given
// module heights (4 wide, stacked vertically).
func legalStack(d *netlist.Design) *core.Result {
	res := &core.Result{Design: d, ChipWidth: 4, Height: 6, Source: "test"}
	for i := range d.Modules {
		r := geom.NewRect(0, float64(i)*2, 4, 2)
		res.Placements = append(res.Placements, core.Placement{Index: i, Env: r, Mod: r})
	}
	return res
}

func TestBoardPublishVerified(t *testing.T) {
	d := boardDesign()
	b := NewBoard(d, 4, nil)
	if _, _, ok := b.Snapshot(); ok {
		t.Fatal("empty board reports a best")
	}
	if !b.Publish("anneal", legalStack(d)) {
		t.Fatal("legal candidate rejected")
	}
	best, src, ok := b.Snapshot()
	if !ok || math.Abs(best.Height-6) > 1e-9 || src != "anneal" {
		t.Fatalf("Snapshot() = %v, %q, %v", best, src, ok)
	}
	if ttff, ok := b.FirstFeasible(); !ok || ttff <= 0 {
		t.Fatalf("FirstFeasible() = %v, %v", ttff, ok)
	}
}

// A deliberately-overlapping candidate is rejected by the shared verify
// path and never becomes the board's best.
func TestBoardRejectsOverlappingCandidate(t *testing.T) {
	d := boardDesign()
	b := NewBoard(d, 4, nil)
	if !b.Publish("anneal", legalStack(d)) {
		t.Fatal("legal candidate rejected")
	}

	// An "amazing" height-2 floorplan ... with all three modules stacked
	// on top of each other.
	cheat := &core.Result{Design: d, ChipWidth: 4, Height: 2, Source: "cheat"}
	for i := range d.Modules {
		r := geom.NewRect(0, 0, 4, 2)
		cheat.Placements = append(cheat.Placements, core.Placement{Index: i, Env: r, Mod: r})
	}
	if b.Publish("project", cheat) {
		t.Fatal("overlapping candidate accepted as incumbent")
	}
	if best, src, _ := b.Snapshot(); math.Abs(best.Height-6) > 1e-9 || src != "anneal" {
		t.Fatalf("overlapping candidate moved the board: Snapshot() = %v, %q", best.Height, src)
	}
	if b.Rejected() != 1 {
		t.Fatalf("Rejected() = %d, want 1", b.Rejected())
	}
	if len(b.History()) != 1 {
		t.Fatalf("history grew on a rejected candidate: %v", b.History())
	}
}

func TestBoardRejectsIncompleteAndTooWide(t *testing.T) {
	d := boardDesign()
	b := NewBoard(d, 4, nil)

	partial := legalStack(d)
	partial.Placements = partial.Placements[:2]
	if b.Publish("x", partial) {
		t.Fatal("incomplete candidate accepted")
	}

	wide := &core.Result{Design: d, ChipWidth: 12, Height: 2, Source: "wide"}
	for i := range d.Modules {
		r := geom.NewRect(float64(i)*4, 0, 4, 2)
		wide.Placements = append(wide.Placements, core.Placement{Index: i, Env: r, Mod: r})
	}
	if b.Publish("x", wide) {
		t.Fatal("candidate wider than the race width accepted")
	}
	if b.Publish("x", nil) {
		t.Fatal("nil candidate accepted")
	}
	if _, _, ok := b.Snapshot(); ok {
		t.Fatal("rejected candidates installed an incumbent")
	}
}

// The bound is the area bound, and a non-improving publish leaves the
// history alone, so incumbent heights are strictly decreasing and their
// bound snapshots monotonically non-decreasing.
func TestBoardBoundMonotoneAndHistoryDecreasing(t *testing.T) {
	d := boardDesign()
	b := NewBoard(d, 4, nil)
	lb, src := b.Bound()
	// Area bound: 24/4 = 6; tallest min module side = 2.
	if math.Abs(lb-6) > 1e-9 || src != "area" {
		t.Fatalf("seed bound = %v (%s), want 6 (area)", lb, src)
	}

	first := legalStack(d)
	first.Height = 8 // a worse chip that still contains the stack
	if !b.Publish("seqpair", first) {
		t.Fatal("first candidate rejected")
	}
	if b.Publish("seqpair", first) {
		t.Fatal("equal-height candidate accepted as an improvement")
	}
	if !b.Publish("anneal", legalStack(d)) {
		t.Fatal("improving candidate rejected")
	}
	hist := b.History()
	if len(hist) != 2 {
		t.Fatalf("history length = %d, want 2", len(hist))
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].Height >= hist[i-1].Height {
			t.Fatalf("incumbent heights not strictly decreasing: %v", hist)
		}
		if hist[i].Bound < hist[i-1].Bound {
			t.Fatalf("bound snapshots decreased: %v", hist)
		}
	}
}

// Incumbent events carry the publish telemetry: source, height, the
// first-feasible flag, and the monotone bound.
func TestBoardEmitsIncumbentEvents(t *testing.T) {
	d := boardDesign()
	rec := &obs.Recorder{}
	b := NewBoard(d, 4, obs.New(rec))
	worse := legalStack(d)
	worse.Height = 8
	b.Publish("project", worse)
	b.Publish("anneal", legalStack(d))

	events := rec.Events()
	var inc []obs.Event
	for _, e := range events {
		if e.Kind == obs.KindPortfolioIncumbent {
			inc = append(inc, e)
		}
	}
	if len(inc) != 2 {
		t.Fatalf("incumbent events = %d, want 2", len(inc))
	}
	if !inc[0].First || inc[0].Detail != "project" {
		t.Fatalf("first event = %+v", inc[0])
	}
	if inc[1].First || inc[1].Detail != "anneal" || inc[1].Height >= inc[0].Height {
		t.Fatalf("second event = %+v", inc[1])
	}
}
