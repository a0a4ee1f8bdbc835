package anneal

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"afp/internal/core"
	"afp/internal/netlist"
	"afp/internal/obs"
)

// runner is one annealer entry point; the golden suite runs each design
// through both representations.
type runner func(context.Context, *netlist.Design, Config) (*core.Result, error)

// representations lists both entry points with the Source label and
// span name of their runs.
var representations = []struct {
	name   string
	run    runner
	source string
}{
	{"slicing", FloorplanCtx, "anneal"},
	{"seqpair", SeqPairCtx, "seqpair"},
}

// goldenCase is one pinned annealer configuration. Designs with at most
// one module pin the floorplan only: nothing can move, so how many
// temperatures an implementation walks through is not part of the
// contract.
type goldenCase struct {
	name      string
	design    func() *netlist.Design
	cfg       func(*netlist.Design) Config
	floorOnly bool
}

func portfolioWidth(lambda float64) func(*netlist.Design) Config {
	return func(d *netlist.Design) Config {
		return Config{Seed: 1, Lambda: lambda, FixedWidth: core.ChipWidthFor(d, core.Config{})}
	}
}

func moves(n int) func(*netlist.Design) Config {
	return func(*netlist.Design) Config { return Config{Seed: 1, MovesPerTemp: n} }
}

func flexDesign() *netlist.Design {
	return &netlist.Design{
		Name: "flex",
		Modules: []netlist.Module{
			{Name: "f1", Kind: netlist.Flexible, Area: 8, MinAspect: 0.5, MaxAspect: 2},
			{Name: "f2", Kind: netlist.Flexible, Area: 12, MinAspect: 1.0 / 3, MaxAspect: 3},
			{Name: "r", Kind: netlist.Rigid, W: 4, H: 2, Rotatable: true},
			{Name: "s", Kind: netlist.Rigid, W: 2, H: 3},
		},
		Nets: []netlist.Net{{Name: "n", Modules: []int{0, 2, 3}, Weight: 2}},
	}
}

func singleDesign() *netlist.Design {
	return &netlist.Design{Name: "one", Modules: []netlist.Module{{Name: "a", Kind: netlist.Rigid, W: 5, H: 2, Rotatable: true}}}
}

var goldenCases = []goldenCase{
	{name: "rand8", design: func() *netlist.Design { return netlist.Random(8, 2) }, cfg: moves(40)},
	{name: "rand10-wire", design: func() *netlist.Design { return netlist.Random(10, 4) }, cfg: portfolioWidth(0.02)},
	{name: "rand12-wire", design: func() *netlist.Design { return netlist.Random(12, 3) }, cfg: portfolioWidth(0.02)},
	{name: "ami33", design: netlist.AMI33, cfg: moves(40)},
	{name: "flex", design: flexDesign, cfg: func(*netlist.Design) Config { return Config{Seed: 3, Lambda: 0.5} }},
	{name: "empty", design: func() *netlist.Design { return &netlist.Design{Name: "empty"} }, cfg: moves(0), floorOnly: true},
	{name: "single", design: singleDesign, cfg: moves(0), floorOnly: true},
	{name: "single-narrow", design: singleDesign, cfg: func(*netlist.Design) Config { return Config{Seed: 1, FixedWidth: 4} }, floorOnly: true},
}

// golden holds each run's fingerprint, recorded before the two annealers
// shared a cooling loop: the float bits of the chip width and height, a
// digest of the placements, the source label, then (for designs of two
// or more modules) the number of Best calls and the count and digest of
// the anneal.temp events.
var golden = map[string]string{
	"rand8/slicing":         "w=4040e0e992be2a97 h=4055fa67fc3e1678 place=8/c073bbc1410f5ba1 src=anneal best=5 temps=57/63e09e9d692ae30e",
	"rand8/seqpair":         "w=4051bfdab515d70c h=404483fd63d2518d place=8/638c5f55ce4e81ba src=seqpair best=18 temps=57/8fdbff8671bf201c",
	"rand10-wire/slicing":   "w=4050d8bdac5c6113 h=404cf7ff9b01571f place=10/4ad8f29a4c7596f8 src=anneal best=26 temps=37/ec92995be876983b",
	"rand10-wire/seqpair":   "w=4050396270ea88c8 h=404de05ecb279a41 place=10/122fec4f1a59df2e src=seqpair best=38 temps=57/27d18006f91de7a2",
	"rand12-wire/slicing":   "w=405128ad309e7a3e h=4051155ed374f310 place=12/e747c2c75170a1b1 src=anneal best=31 temps=43/e825f24ec04948d5",
	"rand12-wire/seqpair":   "w=4050b203eb780afa h=40520e8204d6e997 place=12/4e7208f142280a75 src=seqpair best=32 temps=57/5189bc5e6e6c05c1",
	"ami33/slicing":         "w=40681b28f8190330 h=40519542efbf53d4 place=33/43b9f9004c975d1b src=anneal best=9 temps=57/d73b8cf695497e2d",
	"ami33/seqpair":         "w=4060c2b85e644240 h=4057f8a2ba7650f3 place=33/e7b474bdf9e0c19f src=seqpair best=46 temps=57/53e7424c65257c81",
	"flex/slicing":          "w=4013333333333333 h=401c924924924924 place=4/c482cb4bd0ae5426 src=anneal best=4 temps=57/3ba8007d4097ae48",
	"flex/seqpair":          "w=4013333333333333 h=401c924924924924 place=4/e5544937ecba0c40 src=seqpair best=14 temps=57/d6a3aeee5303ac59",
	"empty/slicing":         "w=0000000000000000 h=0000000000000000 place=0/cbf29ce484222325 src=anneal",
	"empty/seqpair":         "w=0000000000000000 h=0000000000000000 place=0/cbf29ce484222325 src=seqpair",
	"single/slicing":        "w=4000000000000000 h=4014000000000000 place=1/683d9deb4a5f339d src=anneal",
	"single/seqpair":        "w=4014000000000000 h=4000000000000000 place=1/544f8fef04d76226 src=seqpair",
	"single-narrow/slicing": "w=4014000000000000 h=4000000000000000 place=1/544f8fef04d76226 src=anneal",
	"single-narrow/seqpair": "w=4014000000000000 h=4000000000000000 place=1/544f8fef04d76226 src=seqpair",
}

// TestGoldenFloorplans pins both representations' floorplans, Best
// callbacks and anneal.temp streams bit for bit, so any change to the
// RNG draw order, the cooling schedule or a cost function shows.
func TestGoldenFloorplans(t *testing.T) {
	for _, gc := range goldenCases {
		for _, rep := range representations {
			name := gc.name + "/" + rep.name
			t.Run(name, func(t *testing.T) {
				d := gc.design()
				cfg := gc.cfg(d)
				rec := &obs.Recorder{}
				cfg.Obs = obs.New(rec)
				var bests int
				cfg.Best = func(*core.Result) { bests++ }
				res, err := rep.run(context.Background(), d, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := fingerprint(res)
				if !gc.floorOnly {
					temps := fnv.New64a()
					var n int
					for _, e := range rec.Events() {
						if e.Kind != obs.KindAnnealTemp {
							continue
						}
						n++
						fmt.Fprintf(temps, "%x %d %d %x %x\n", math.Float64bits(e.Temp), e.Accepted, e.Attempted,
							math.Float64bits(e.Obj), math.Float64bits(e.Bound))
					}
					got += fmt.Sprintf(" best=%d temps=%d/%016x", bests, n, temps.Sum64())
				}
				if want := golden[name]; got != want {
					t.Errorf("fingerprint changed:\n got %q: %q,\nwant %s", name, got, want)
				}
			})
		}
	}
}

// fingerprint digests a floorplan: width and height bits, every
// placement (index, envelope, module rectangle, rotation) and Source.
func fingerprint(r *core.Result) string {
	h := fnv.New64a()
	for _, p := range r.Placements {
		fmt.Fprintf(h, "%d", p.Index)
		for _, v := range []float64{p.Env.X, p.Env.Y, p.Env.W, p.Env.H, p.Mod.X, p.Mod.Y, p.Mod.W, p.Mod.H} {
			fmt.Fprintf(h, " %x", math.Float64bits(v))
		}
		fmt.Fprintf(h, " %t\n", p.Rotated)
	}
	return fmt.Sprintf("w=%016x h=%016x place=%d/%016x src=%s",
		math.Float64bits(r.ChipWidth), math.Float64bits(r.Height), len(r.Placements), h.Sum64(), r.Source)
}
