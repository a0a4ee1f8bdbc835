package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"afp/internal/geom"
	"afp/internal/milp"
	"afp/internal/netlist"
)

func TestFloorplanCtxCancelledReturnsPartial(t *testing.T) {
	d := netlist.AMI33()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := FloorplanCtx(ctx, d, Config{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled solve returned nil partial result")
	}
	if res.Design != d {
		t.Fatal("partial result missing design")
	}
}

func TestFloorplanCtxDeadlineMidSolve(t *testing.T) {
	d := netlist.Random(24, 7)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := FloorplanCtx(ctx, d, Config{GroupSize: 4})
	elapsed := time.Since(start)
	if err == nil {
		t.Skip("instance finished inside the deadline; nothing to assert")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res == nil {
		t.Fatal("deadline solve returned nil partial result")
	}
	// The abort must be prompt: one LP poll window past the deadline, not
	// the full solve. Generous bound to stay robust under -race.
	if elapsed > 3*time.Second {
		t.Fatalf("deadline solve took %v", elapsed)
	}
	// Placed modules in the partial result must still be disjoint.
	for i := 0; i < len(res.Placements); i++ {
		for j := i + 1; j < len(res.Placements); j++ {
			a, b := res.Placements[i].Mod, res.Placements[j].Mod
			if a.X < b.X2()-1e-9 && b.X < a.X2()-1e-9 && a.Y < b.Y2()-1e-9 && b.Y < a.Y2()-1e-9 {
				t.Fatalf("partial placements %d and %d overlap", i, j)
			}
		}
	}
}

func TestFloorplanBestWidthCtxCancelled(t *testing.T) {
	d := netlist.AMI33()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, trials, err := FloorplanBestWidthCtx(ctx, d, Config{}, []float64{1.0})
	if err == nil {
		t.Fatal("want error from cancelled sweep")
	}
	if len(trials) != 1 {
		t.Fatalf("trials = %d, want 1", len(trials))
	}
	if !errors.Is(trials[0].Err, context.Canceled) {
		t.Fatalf("trial err = %v, want context.Canceled", trials[0].Err)
	}
}

// Utilization counts the modules a floorplan places: a complete
// floorplan divides the design's total area, bit for bit, and the
// partial floorplan of its first augmentation step (what a deadline
// returns) stays at or below 1.
func TestPartialUtilizationCountsPlacedModules(t *testing.T) {
	d := netlist.Random(12, 3)
	full, err := Floorplan(d, Config{GroupSize: 4, MILP: milp.Options{MaxNodes: 500}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := full.Utilization(), d.TotalArea()/full.ChipArea(); got != want {
		t.Fatalf("complete floorplan utilization %v, want %v", got, want)
	}

	part := *full
	part.Placements = full.Placements[:len(full.Steps[0].Added)]
	part.Height = geom.NewSkyline(part.Envelopes()).MaxHeight()
	var placed float64
	for _, p := range part.Placements {
		placed += d.Modules[p.Index].ModuleArea()
	}
	u := part.Utilization()
	if u > 1 || math.Abs(u-placed/part.ChipArea()) > 1e-12 {
		t.Fatalf("partial floorplan (%d of %d modules) utilization %v, want placed area over chip area %v",
			len(part.Placements), len(d.Modules), u, placed/part.ChipArea())
	}
}
