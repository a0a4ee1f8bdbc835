package anneal

import (
	"testing"

	"afp/internal/core"
	"afp/internal/netlist"
	"afp/internal/obs"
)

func spanDesign() *netlist.Design {
	d := &netlist.Design{Name: "span"}
	for _, name := range []string{"a", "b", "c", "d"} {
		d.Modules = append(d.Modules, netlist.Module{Name: name, Kind: netlist.Rigid, W: 3, H: 2, Rotatable: true})
	}
	return d
}

// The whole run is wrapped in one paired span named after the
// representation's Source ("anneal" or "seqpair"), so portfolio traces
// attribute time per backend, and the cooling schedule emits anneal.temp
// events.
func TestAnnealSpanPaired(t *testing.T) {
	for _, rep := range representations {
		t.Run(rep.name, func(t *testing.T) {
			rec := &obs.Recorder{}
			run(t, rep.run, spanDesign(), Config{Seed: 2, Obs: obs.New(rec)})
			var starts, ends int
			for _, e := range rec.Events() {
				if e.Name != rep.source {
					continue
				}
				switch e.Kind {
				case obs.KindSpanStart:
					starts++
				case obs.KindSpanEnd:
					ends++
				}
			}
			if starts != 1 || ends != 1 {
				t.Fatalf("%s span start/end = %d/%d, want 1/1", rep.source, starts, ends)
			}
			if rec.CountKind(obs.KindAnnealTemp) == 0 {
				t.Fatal("no anneal.temp events recorded")
			}
		})
	}
}

// Best fires on the initial state and on every improvement, each time
// with a fully decoded floorplan.
func TestAnnealBestCallback(t *testing.T) {
	for _, rep := range representations {
		t.Run(rep.name, func(t *testing.T) {
			d := spanDesign()
			var best []*core.Result
			run(t, rep.run, d, Config{Seed: 2, Best: func(r *core.Result) { best = append(best, r) }})
			if len(best) == 0 {
				t.Fatal("Best never called")
			}
			for _, r := range best {
				if len(r.Placements) != len(d.Modules) {
					t.Fatalf("Best saw a partial floorplan: %d/%d modules", len(r.Placements), len(d.Modules))
				}
				if r.Source != rep.source {
					t.Fatalf("Best result source = %q, want %q", r.Source, rep.source)
				}
			}
		})
	}
}

// FixedWidth steers the packing inside the chip: the quadratic
// excess-width penalty makes any layout within W strictly preferable to
// one that spills, so a generous fixed width yields a result that fits.
func TestAnnealFixedWidthFits(t *testing.T) {
	for _, rep := range representations {
		t.Run(rep.name, func(t *testing.T) {
			w := 9.0 // three 3-wide modules side by side fit easily
			r := run(t, rep.run, spanDesign(), Config{Seed: 2, FixedWidth: w})
			if r.ChipWidth > w+1e-9 {
				t.Fatalf("fixed-width anneal spilled: width %.4g > %.4g", r.ChipWidth, w)
			}
		})
	}
}
