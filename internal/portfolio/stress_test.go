package portfolio

import (
	"context"
	"sync"
	"testing"

	"afp/internal/geom"
	"afp/internal/netlist"
	"afp/internal/obs"
)

// TestRaceEightWorkers races all four backends with an 8-worker MILP
// contestant while a pack of readers hammers the recorder from the side.
// Under -race this exercises the full concurrency surface the analyzer
// suite annotates statically: the B&B pool lock, the shared incumbent
// board, and the per-sink observer locks, all interleaved at once.
func TestRaceEightWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("race of every contestant")
	}
	d := netlist.Random(8, 1)
	cfg := rand8Config()
	cfg.Workers = 8

	rec := &obs.Recorder{}
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Board readers: Solve owns the board internally, so the external
	// pressure here goes through the recorder sink, which every backend
	// event funnels into concurrently with the assertions below.
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					rec.CountKind(obs.KindPortfolioIncumbent)
					rec.LastKind(obs.KindPortfolioWin)
				}
			}
		}()
	}

	res, err := Solve(context.Background(), d, cfg, Options{Seed: 11, Obs: obs.New(rec)})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if v := res.Result.Verify(); len(v) > 0 {
		t.Fatalf("winning floorplan is illegal: %v", v)
	}
	if res.Bound > res.Height+geom.Tol {
		t.Fatalf("proven bound %.6g above achieved height %.6g", res.Bound, res.Height)
	}
	for i := 1; i < len(res.Incumbents); i++ {
		if res.Incumbents[i].Height >= res.Incumbents[i-1].Height {
			t.Fatalf("incumbent heights not strictly decreasing: %+v", res.Incumbents)
		}
	}
	if len(res.Backends) != 4 {
		t.Fatalf("backend results = %d, want 4", len(res.Backends))
	}
	for _, b := range res.Backends {
		if b.Outcome == "error" {
			t.Fatalf("backend %s errored: %s", b.Name, b.Err)
		}
	}
}
