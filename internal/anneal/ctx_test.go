package anneal

import (
	"context"
	"errors"
	"testing"
	"time"

	"afp/internal/netlist"
)

func TestFloorplanCtxCancelledReturnsBest(t *testing.T) {
	for _, rep := range representations {
		t.Run(rep.name, func(t *testing.T) {
			d := netlist.AMI33()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			res, err := rep.run(ctx, d, Config{Seed: 1})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// Annealing always has an incumbent once the initial state is
			// built, so even a pre-cancelled run returns a full placement.
			if res == nil || len(res.Placements) != len(d.Modules) {
				t.Fatalf("cancelled anneal returned unusable result: %+v", res)
			}
		})
	}
}

func TestFloorplanCtxDeadlineStopsPromptly(t *testing.T) {
	for _, rep := range representations {
		t.Run(rep.name, func(t *testing.T) {
			d := netlist.Random(40, 3)
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			start := time.Now()
			res, err := rep.run(ctx, d, Config{Seed: 2, MovesPerTemp: 5000})
			elapsed := time.Since(start)
			if err == nil {
				t.Skip("anneal finished inside the deadline; nothing to assert")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			if elapsed > 2*time.Second {
				t.Fatalf("deadline anneal took %v", elapsed)
			}
			if res == nil || len(res.Placements) != len(d.Modules) {
				t.Fatal("deadline anneal returned unusable result")
			}
		})
	}
}
