package server

import (
	"testing"
)

func TestKeyStableAcrossEquivalentRequests(t *testing.T) {
	base, err := Resolve(smallRequest())
	if err != nil {
		t.Fatal(err)
	}

	// Renaming modules and nets must not change the key.
	renamed := smallRequest()
	renamed.Design.Name = "other"
	for i := range renamed.Design.Modules {
		old := renamed.Design.Modules[i].Name
		renamed.Design.Modules[i].Name = "m_" + old
		for j := range renamed.Design.Nets {
			for k, n := range renamed.Design.Nets[j].Modules {
				if n == old {
					renamed.Design.Nets[j].Modules[k] = "m_" + old
				}
			}
		}
	}
	for j := range renamed.Design.Nets {
		renamed.Design.Nets[j].Name = "net_x"
	}
	rin, err := Resolve(renamed)
	if err != nil {
		t.Fatal(err)
	}
	if rin.Key() != base.Key() {
		t.Fatal("renaming modules changed the cache key")
	}

	// Net order must not change the key.
	reordered := smallRequest()
	reordered.Design.Nets[0], reordered.Design.Nets[1] = reordered.Design.Nets[1], reordered.Design.Nets[0]
	oin, err := Resolve(reordered)
	if err != nil {
		t.Fatal(err)
	}
	if oin.Key() != base.Key() {
		t.Fatal("net order changed the cache key")
	}

	// Defaulted options must hash like explicit defaults.
	explicit := smallRequest()
	explicit.Options.Backend = "milp"
	explicit.Options.Objective = "area"
	explicit.Options.GroupSize = 4
	ein, err := Resolve(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if ein.Key() != base.Key() {
		t.Fatal("explicit default options changed the cache key")
	}

	// The MILP reads no seed, so a milp request's annealSeed is not part
	// of its key.
	seeded := smallRequest()
	seeded.Options.AnnealSeed = 42
	sin, err := Resolve(seeded)
	if err != nil {
		t.Fatal(err)
	}
	if sin.Key() != base.Key() {
		t.Fatal("annealSeed changed a milp request's cache key")
	}

	// The deadline is not part of the key: a cached complete result is
	// valid under any timeout.
	timed := smallRequest()
	timed.Options.TimeoutMS = 123
	tin, err := Resolve(timed)
	if err != nil {
		t.Fatal(err)
	}
	if tin.Key() != base.Key() {
		t.Fatal("timeout changed the cache key")
	}
}

func TestKeyChangesWithInstance(t *testing.T) {
	base, _ := Resolve(smallRequest())

	grown := smallRequest()
	grown.Design.Modules[0].W = 7
	g, err := Resolve(grown)
	if err != nil {
		t.Fatal(err)
	}
	if g.Key() == base.Key() {
		t.Fatal("module geometry change did not change the key")
	}

	opt := smallRequest()
	opt.Options.Objective = "areawire"
	opt.Options.WireWeight = 0.1
	o, err := Resolve(opt)
	if err != nil {
		t.Fatal(err)
	}
	if o.Key() == base.Key() {
		t.Fatal("objective change did not change the key")
	}

	// The annealer is seeded: its seed stays in the key.
	annealKey := func(seed int64) string {
		req := smallRequest()
		req.Options.Backend = "anneal"
		req.Options.AnnealSeed = seed
		in, err := Resolve(req)
		if err != nil {
			t.Fatal(err)
		}
		return in.Key()
	}
	if annealKey(1) == annealKey(2) {
		t.Fatal("annealSeed change did not change an anneal request's key")
	}

	weighted := smallRequest()
	weighted.Design.Nets[1].Weight = 9
	wn, err := Resolve(weighted)
	if err != nil {
		t.Fatal(err)
	}
	if wn.Key() == base.Key() {
		t.Fatal("net weight change did not change the key")
	}
}

func TestGeneratedDesignsHashByContent(t *testing.T) {
	a, err := Resolve(&SolveRequest{Generate: "rand", N: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Resolve(&SolveRequest{Generate: "rand", N: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Fatal("identical generator requests hash differently")
	}
	c, err := Resolve(&SolveRequest{Generate: "rand", N: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.Key() == a.Key() {
		t.Fatal("different generator seeds hash equal")
	}
}

func TestResolveInlineDesign(t *testing.T) {
	in, err := Resolve(smallRequest())
	if err != nil {
		t.Fatal(err)
	}
	d := in.Design
	if len(d.Modules) != 5 || len(d.Nets) != 2 {
		t.Fatalf("resolved %d modules, %d nets", len(d.Modules), len(d.Nets))
	}
	if got := d.Nets[1].Modules; len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("net members = %v", got)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}

	bad := smallRequest()
	bad.Design.Nets[0].Modules = []string{"a", "ghost"}
	if _, err := Resolve(bad); err == nil {
		t.Fatal("unknown net member accepted")
	}
	dup := smallRequest()
	dup.Design.Modules[1].Name = "a"
	if _, err := Resolve(dup); err == nil {
		t.Fatal("duplicate module name accepted")
	}
}
