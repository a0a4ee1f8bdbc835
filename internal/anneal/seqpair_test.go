package anneal

import (
	"math/rand"
	"testing"

	"afp/internal/geom"
	"afp/internal/netlist"
)

func TestPlaceNeverOverlaps(t *testing.T) {
	// The sequence-pair theorem: any pair of permutations decodes to a
	// non-overlapping packing. Check it over random states.
	d := netlist.Random(10, 3)
	r, s := newSeqPair(&base{d: d, shapes: sampleShapes(d)})
	a := r.(*seqPair)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		rng.Shuffle(10, func(i, j int) { s.gp[i], s.gp[j] = s.gp[j], s.gp[i] })
		rng.Shuffle(10, func(i, j int) { s.gn[i], s.gn[j] = s.gn[j], s.gn[i] })
		for m := range s.shp {
			s.shp[m] = rng.Intn(len(a.shapes[m]))
		}
		rects, W, H := a.place(s)
		if i, j, bad := geom.AnyOverlap(rects); bad {
			t.Fatalf("trial %d: modules %d/%d overlap: %v %v", trial, i, j, rects[i], rects[j])
		}
		for _, r := range rects {
			if r.X < -1e-9 || r.Y < -1e-9 || r.X2() > W+1e-9 || r.Y2() > H+1e-9 {
				t.Fatalf("trial %d: %v outside %v x %v", trial, r, W, H)
			}
		}
	}
}

// The sequence-pair cost scores every move, so its wirelength term reads
// the packed rectangles in place: one allocation per evaluation, the
// packing's own.
func TestSeqPairCostAllocs(t *testing.T) {
	d := netlist.Random(10, 3)
	r, s := newSeqPair(&base{d: d, cfg: Config{Lambda: 0.02}, shapes: sampleShapes(d)})
	if n := testing.AllocsPerRun(20, func() { r.cost(s) }); n != 1 {
		t.Fatalf("cost allocates %v times per call, want 1", n)
	}
}
