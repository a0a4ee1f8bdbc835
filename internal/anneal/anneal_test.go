package anneal

import (
	"context"
	"math"
	"testing"

	"afp/internal/core"
	"afp/internal/netlist"
)

// Each behaviour below is one test run over both representations.

func twoByTwo() *netlist.Design {
	return &netlist.Design{
		Name: "four",
		Modules: []netlist.Module{
			{Name: "a", Kind: netlist.Rigid, W: 2, H: 2},
			{Name: "b", Kind: netlist.Rigid, W: 2, H: 2},
			{Name: "c", Kind: netlist.Rigid, W: 2, H: 2},
			{Name: "d", Kind: netlist.Rigid, W: 2, H: 2},
		},
		Nets: []netlist.Net{{Name: "n", Modules: []int{0, 3}, Weight: 1}},
	}
}

// run is rep.run without a context.
func run(t *testing.T, rep runner, d *netlist.Design, cfg Config) *core.Result {
	t.Helper()
	r, err := rep(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// legal fails t unless r places every module of d without overlap and
// passes core's verification (rotations and flexible shapes included).
func legal(t *testing.T, d *netlist.Design, r *core.Result) {
	t.Helper()
	if len(r.Placements) != len(d.Modules) {
		t.Fatalf("placed %d of %d modules", len(r.Placements), len(d.Modules))
	}
	if r.Overlaps() {
		t.Fatal("floorplan overlaps")
	}
	if v := r.Verify(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestAnnealFourSquares(t *testing.T) {
	for _, rep := range representations {
		t.Run(rep.name, func(t *testing.T) {
			d := twoByTwo()
			r := run(t, rep.run, d, Config{Seed: 1})
			// Four 2x2 squares pack perfectly into 4x4 = 16 (a slicing of
			// the square achieves it), so both annealers must find a
			// zero-dead-space floorplan.
			if math.Abs(r.ChipArea()-16) > 1e-9 {
				t.Fatalf("area = %v, want 16", r.ChipArea())
			}
			legal(t, d, r)
		})
	}
}

func TestAnnealDeterministic(t *testing.T) {
	for _, rep := range representations {
		t.Run(rep.name, func(t *testing.T) {
			d := twoByTwo()
			for _, seed := range []int64{4, 7} {
				r1 := run(t, rep.run, d, Config{Seed: seed})
				r2 := run(t, rep.run, d, Config{Seed: seed})
				if r1.ChipArea() != r2.ChipArea() || r1.HPWL() != r2.HPWL() {
					t.Fatalf("seed %d: not deterministic", seed)
				}
			}
		})
	}
}

// Flexible modules keep their area at every sampled width, and a
// rotatable module placed turned reports Rotated (Verify checks the
// placed sides against the module's).
func TestAnnealFlexible(t *testing.T) {
	designs := []struct {
		d     *netlist.Design
		slack float64 // allowed chip area over the module area
	}{
		{&netlist.Design{Modules: []netlist.Module{
			{Name: "f1", Kind: netlist.Flexible, Area: 8, MinAspect: 0.5, MaxAspect: 2},
			{Name: "f2", Kind: netlist.Flexible, Area: 8, MinAspect: 0.5, MaxAspect: 2},
			{Name: "r", Kind: netlist.Rigid, W: 4, H: 2, Rotatable: true},
		}}, 1.3},
		{&netlist.Design{Modules: []netlist.Module{
			{Name: "f", Kind: netlist.Flexible, Area: 12, MinAspect: 1.0 / 3, MaxAspect: 3},
			{Name: "r", Kind: netlist.Rigid, W: 6, H: 2, Rotatable: true},
			{Name: "s", Kind: netlist.Rigid, W: 2, H: 2},
		}}, 1.35},
	}
	for _, rep := range representations {
		t.Run(rep.name, func(t *testing.T) {
			for i, c := range designs {
				for _, seed := range []int64{2, 3} {
					r := run(t, rep.run, c.d, Config{Seed: seed})
					legal(t, c.d, r)
					if total := c.d.TotalArea(); r.ChipArea() > total*c.slack {
						t.Fatalf("design %d seed %d: area = %v, too loose for %v of module area", i, seed, r.ChipArea(), total)
					}
					for _, p := range r.Placements {
						m := &c.d.Modules[p.Index]
						if m.Kind == netlist.Flexible && math.Abs(p.Mod.Area()-m.Area) > 1e-6 {
							t.Fatalf("flexible area = %v, want %v", p.Mod.Area(), m.Area)
						}
					}
				}
			}
		})
	}
}

func TestAnnealSingleAndEmpty(t *testing.T) {
	for _, rep := range representations {
		t.Run(rep.name, func(t *testing.T) {
			d := &netlist.Design{Modules: []netlist.Module{{Name: "a", Kind: netlist.Rigid, W: 3, H: 5}}}
			if r := run(t, rep.run, d, Config{}); r.ChipArea() != 15 || r.Source != rep.source {
				t.Fatalf("single module: area %v, source %q", r.ChipArea(), r.Source)
			}
			empty := run(t, rep.run, &netlist.Design{}, Config{})
			if len(empty.Placements) != 0 || empty.Source != rep.source {
				t.Fatalf("empty design: %d placements, source %q", len(empty.Placements), empty.Source)
			}
		})
	}
}

// With a strong lambda, the connected modules 0 and 3 end up no farther
// apart than without.
func TestAnnealWirelengthLambda(t *testing.T) {
	for _, rep := range representations {
		t.Run(rep.name, func(t *testing.T) {
			d := twoByTwo()
			for _, seed := range []int64{2, 3} {
				noWire := run(t, rep.run, d, Config{Seed: seed})
				wire := run(t, rep.run, d, Config{Seed: seed, Lambda: 10})
				if wire.HPWL() > noWire.HPWL()+1e-9 {
					t.Fatalf("seed %d: lambda did not reduce HPWL: %v vs %v", seed, wire.HPWL(), noWire.HPWL())
				}
			}
		})
	}
}

func TestAnnealAMI33(t *testing.T) {
	if testing.Short() {
		t.Skip("ami33 anneal in -short mode")
	}
	movesPerTemp := map[string]int{"slicing": 200, "seqpair": 150}
	for _, rep := range representations {
		t.Run(rep.name, func(t *testing.T) {
			d := netlist.AMI33()
			r := run(t, rep.run, d, Config{Seed: 1, MovesPerTemp: movesPerTemp[rep.name]})
			legal(t, d, r)
			util := d.TotalArea() / r.ChipArea()
			if util < 0.6 {
				t.Fatalf("ami33 utilization %.2f, too low", util)
			}
			t.Logf("ami33 %s: area %.0f, util %.1f%%", rep.name, r.ChipArea(), 100*util)
		})
	}
}
