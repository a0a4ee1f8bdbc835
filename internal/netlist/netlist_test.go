package netlist

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestModuleWidthRange(t *testing.T) {
	rigid := Module{Kind: Rigid, W: 3, H: 7}
	if lo, hi := rigid.WidthRange(); lo != 3 || hi != 3 {
		t.Fatalf("non-rotatable rigid range = [%v, %v]", lo, hi)
	}
	rigid.Rotatable = true
	if lo, hi := rigid.WidthRange(); lo != 3 || hi != 7 {
		t.Fatalf("rotatable rigid range = [%v, %v]", lo, hi)
	}
	flex := Module{Kind: Flexible, Area: 100, MinAspect: 0.25, MaxAspect: 4}
	lo, hi := flex.WidthRange()
	if math.Abs(lo-5) > 1e-9 || math.Abs(hi-20) > 1e-9 {
		t.Fatalf("flexible range = [%v, %v], want [5, 20]", lo, hi)
	}
	// At every width in range, w*h must equal the area.
	for _, w := range []float64{5, 10, 20} {
		if h := flex.HeightFor(w); math.Abs(w*h-100) > 1e-9 {
			t.Fatalf("HeightFor(%v)*%v = %v, want 100", w, w, w*h)
		}
	}
}

func TestModuleAreaAndPins(t *testing.T) {
	m := Module{Kind: Rigid, W: 4, H: 5, Pins: [4]int{1, 2, 3, 4}}
	if m.ModuleArea() != 20 {
		t.Fatalf("area = %v", m.ModuleArea())
	}
	if m.PinTotal() != 10 {
		t.Fatalf("pins = %v", m.PinTotal())
	}
	f := Module{Kind: Flexible, Area: 42}
	if f.ModuleArea() != 42 {
		t.Fatalf("flexible area = %v", f.ModuleArea())
	}
}

func TestConnectivity(t *testing.T) {
	d := &Design{
		Modules: make([]Module, 4),
		Nets: []Net{
			{Name: "a", Modules: []int{0, 1, 2}, Weight: 1},
			{Name: "b", Modules: []int{0, 1}, Weight: 2},
		},
	}
	c := d.Connectivity()
	if c[0][1] != 3 || c[1][0] != 3 {
		t.Fatalf("c01 = %v, want 3", c[0][1])
	}
	if c[0][2] != 1 || c[1][2] != 1 {
		t.Fatalf("c02/c12 = %v/%v, want 1/1", c[0][2], c[1][2])
	}
	if c[0][3] != 0 {
		t.Fatalf("c03 = %v, want 0", c[0][3])
	}
	if c[0][0] != 0 {
		t.Fatalf("diagonal = %v, want 0", c[0][0])
	}
}

func TestConnectivityDefaultWeight(t *testing.T) {
	d := &Design{
		Modules: make([]Module, 2),
		Nets:    []Net{{Name: "a", Modules: []int{0, 1}}}, // weight 0 -> 1
	}
	if c := d.Connectivity(); c[0][1] != 1 {
		t.Fatalf("c01 = %v, want 1", c[0][1])
	}
}

func TestValidate(t *testing.T) {
	good := &Design{
		Modules: []Module{
			{Name: "a", Kind: Rigid, W: 1, H: 1},
			{Name: "b", Kind: Flexible, Area: 2, MinAspect: 0.5, MaxAspect: 2},
		},
		Nets: []Net{{Name: "n", Modules: []int{0, 1}}},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid design rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Design)
	}{
		{"unnamed module", func(d *Design) { d.Modules[0].Name = "" }},
		{"duplicate name", func(d *Design) { d.Modules[1].Name = "a" }},
		{"bad rigid dims", func(d *Design) { d.Modules[0].W = 0 }},
		{"bad flexible area", func(d *Design) { d.Modules[1].Area = -1 }},
		{"bad aspect", func(d *Design) { d.Modules[1].MaxAspect = 0.1 }},
		{"negative pins", func(d *Design) { d.Modules[0].Pins[0] = -1 }},
		{"short net", func(d *Design) { d.Nets[0].Modules = []int{0} }},
		{"net out of range", func(d *Design) { d.Nets[0].Modules = []int{0, 9} }},
		{"net dup module", func(d *Design) { d.Nets[0].Modules = []int{0, 0} }},
		{"negative net weight", func(d *Design) { d.Nets[0].Weight = -1 }},
	}
	for _, tc := range cases {
		d := &Design{
			Modules: append([]Module(nil), good.Modules...),
			Nets:    []Net{{Name: "n", Modules: []int{0, 1}}},
		}
		tc.mut(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestParseWriteRoundTrip(t *testing.T) {
	src := `# test design
design demo
module a rigid 4 5 rot pins 1 2 3 4
module b flexible 36 0.5 2 pins 0 1 0 1
module c rigid 2 2
net n1 critical a b
net n2 weight 2.5 b c
net n3 a b c
`
	d, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "demo" || len(d.Modules) != 3 || len(d.Nets) != 3 {
		t.Fatalf("parsed %q with %d modules, %d nets", d.Name, len(d.Modules), len(d.Nets))
	}
	if !d.Modules[0].Rotatable || d.Modules[0].Pins != [4]int{1, 2, 3, 4} {
		t.Fatalf("module a parsed wrong: %+v", d.Modules[0])
	}
	if d.Modules[1].Kind != Flexible || d.Modules[1].Area != 36 {
		t.Fatalf("module b parsed wrong: %+v", d.Modules[1])
	}
	if !d.Nets[0].Critical || d.Nets[1].Weight != 2.5 {
		t.Fatalf("net flags parsed wrong: %+v %+v", d.Nets[0], d.Nets[1])
	}

	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Parse(&buf)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(d, d2) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", d, d2)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"module a rigid",                 // missing dims
		"module a rigid x 2",             // bad width
		"module a flexible 10 0.5",       // missing aspect
		"module a squishy 1 2",           // unknown kind
		"module a rigid 1 2 pins 1 2",    // short pins
		"bogus directive",                // unknown directive
		"design",                         // missing name
		"module a rigid 1 2\nnet n a",    // one-module net (via Validate)
		"module a rigid 1 2\nnet n a zz", // unknown module in net
		"net n weight x",                 // bad weight
	}
	for _, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestAMI33(t *testing.T) {
	d := AMI33()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Modules) != 33 {
		t.Fatalf("modules = %d, want 33", len(d.Modules))
	}
	if got := d.TotalArea(); math.Abs(got-AMI33TotalArea) > 1e-6 {
		t.Fatalf("total area = %v, want %v", got, AMI33TotalArea)
	}
	if len(d.Nets) != 123 {
		t.Fatalf("nets = %d, want 123", len(d.Nets))
	}
	var crit, flex int
	for _, n := range d.Nets {
		if n.Critical {
			crit++
		}
	}
	for i := range d.Modules {
		if d.Modules[i].Kind == Flexible {
			flex++
		}
	}
	if crit != 8 {
		t.Fatalf("critical nets = %d, want 8", crit)
	}
	if flex == 0 || flex == 33 {
		t.Fatalf("flexible module count = %d, want a mix", flex)
	}
	// Determinism.
	d2 := AMI33()
	if !reflect.DeepEqual(d, d2) {
		t.Fatal("AMI33 not deterministic")
	}
}

func TestAMI49(t *testing.T) {
	d := AMI49()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Modules) != 49 || len(d.Nets) != 180 {
		t.Fatalf("ami49: %d modules, %d nets", len(d.Modules), len(d.Nets))
	}
	if math.Abs(d.TotalArea()-AMI49TotalArea) > 1e-6 {
		t.Fatalf("ami49 area = %v", d.TotalArea())
	}
	if !reflect.DeepEqual(d, AMI49()) {
		t.Fatal("AMI49 not deterministic")
	}
}

func TestRandomGenerator(t *testing.T) {
	for _, n := range []int{15, 20, 25} {
		d := Random(n, 7)
		if err := d.Validate(); err != nil {
			t.Fatalf("Random(%d): %v", n, err)
		}
		if len(d.Modules) != n {
			t.Fatalf("Random(%d) has %d modules", n, len(d.Modules))
		}
		if math.Abs(d.TotalArea()-349*float64(n)) > 1e-6 {
			t.Fatalf("Random(%d) area = %v", n, d.TotalArea())
		}
	}
	if !reflect.DeepEqual(Random(15, 3), Random(15, 3)) {
		t.Fatal("Random not deterministic for equal seeds")
	}
	if reflect.DeepEqual(Random(15, 3), Random(15, 4)) {
		t.Fatal("Random identical across different seeds")
	}
}

// TestRandomSmallDesigns covers designs smaller than the largest net
// (five modules): a net draws its distinct modules until it has them, so
// its size must not exceed the design's.
func TestRandomSmallDesigns(t *testing.T) {
	for n := 1; n <= 4; n++ {
		for seed := int64(1); seed <= 3; seed++ {
			done := make(chan *Design, 1)
			go func() { done <- Random(n, seed) }()
			var d *Design
			select {
			case d = <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("Random(%d, %d) did not return", n, seed)
			}
			if err := d.Validate(); err != nil {
				t.Fatalf("Random(%d, %d): %v", n, seed, err)
			}
			if len(d.Modules) != n {
				t.Fatalf("Random(%d, %d) has %d modules", n, seed, len(d.Modules))
			}
			if n == 1 && len(d.Nets) != 0 {
				t.Fatalf("Random(1, %d) has %d nets, want none", seed, len(d.Nets))
			}
		}
	}
}

// TestRandomDesignsUnchanged checks that capping the net size changed no
// design with five or more modules: the digests were recorded before the
// cap.
func TestRandomDesignsUnchanged(t *testing.T) {
	for _, c := range []struct {
		name   string
		d      *Design
		digest string
	}{
		{"rand5/1", Random(5, 1), "e46303ba54c6840d026cee548aa713ce3c7a731df376695225a0028a15378465"},
		{"rand6/2", Random(6, 2), "0a41e469be7da5b14015643b4559ce9cbcaf6b1cf5ecc5f37cfa9a3d34050164"},
		{"rand8/3", Random(8, 3), "c9b55d59d7b14b1cd6c326d582592a7ade732bf952337537e17e8d763142b15d"},
		{"rand12/7", Random(12, 7), "b69157409e89cdd54089c518dfd2686587f883ecb5256f7a21d9aede9ebea920"},
		{"rand20/2001", Random(20, 2001), "4f4f439ed5dbb78cc5edd27a18359facee0c1cbd2a7555854a34f2bad7c44b15"},
		{"rand25/1", Random(25, 1), "ef679c23d06b01cd7af4e5ed214c858a0bb2c836091b9dfc21475bef24c8fb3c"},
		{"ami33", AMI33(), "68352050ac5f24cd3121fd423560d81b13023b264643a8ff2fb881158f22a397"},
	} {
		b, err := json.Marshal(c.d)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != c.digest {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.digest)
		}
	}
}

func TestBuiltin(t *testing.T) {
	for _, c := range []struct {
		name    string
		n       int
		modules int
	}{
		{"ami33", 0, 33},
		{"ami49", 7, 49}, // n is ignored for the ami designs
		{"AMI49", 0, 49},
		{"rand", 1, 1},
		{"Rand", 20, 20},
		{"rand", MaxRandomN, MaxRandomN},
	} {
		d, err := Builtin(c.name, c.n, 1)
		if err != nil {
			t.Errorf("Builtin(%q, %d): %v", c.name, c.n, err)
			continue
		}
		if len(d.Modules) != c.modules {
			t.Errorf("Builtin(%q, %d) has %d modules, want %d", c.name, c.n, len(d.Modules), c.modules)
		}
	}
	if d, _ := Builtin("rand", 12, 3); !reflect.DeepEqual(d, Random(12, 3)) {
		t.Error("Builtin rand differs from Random")
	}
	for _, c := range []struct {
		name string
		n    int
		want string
	}{
		{"rand", 0, `generate "rand" requires 0 < n <= 1000`},
		{"rand", -3, `generate "rand" requires 0 < n <= 1000`},
		{"rand", MaxRandomN + 1, `generate "rand" requires 0 < n <= 1000`},
		{"ami50", 0, `unknown generator "ami50" (want ami33, ami49 or rand)`},
		{"rand20", 0, `unknown generator "rand20" (want ami33, ami49 or rand)`},
		{"", 5, `unknown generator "" (want ami33, ami49 or rand)`},
	} {
		if _, err := Builtin(c.name, c.n, 1); err == nil || err.Error() != c.want {
			t.Errorf("Builtin(%q, %d) error = %v, want %q", c.name, c.n, err, c.want)
		}
	}
}

func TestKindSideStrings(t *testing.T) {
	if Rigid.String() != "rigid" || Flexible.String() != "flexible" {
		t.Fatal("Kind strings wrong")
	}
	want := []string{"north", "east", "south", "west"}
	for i, w := range want {
		if Side(i).String() != w {
			t.Fatalf("Side(%d) = %q", i, Side(i).String())
		}
	}
}
