package obs

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// logRoundTrip appends events to a fresh log and decodes them back.
func logRoundTrip(events []Event) []Event {
	var l EventLog
	for i := range events {
		l.Append(&events[i])
	}
	var out []Event
	l.Snapshot().Each(func(e Event) { out = append(out, e) })
	return out
}

// sameEvent compares two events field by field, floats by their bits,
// and reports the first field that differs.
func sameEvent(a, b Event) (string, bool) {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return va.Type().Field(i).Name, false
			}
			continue
		}
		if fa.Interface() != fb.Interface() {
			return va.Type().Field(i).Name, false
		}
	}
	return "", true
}

func checkRoundTrip(t *testing.T, in []Event) {
	t.Helper()
	out := logRoundTrip(in)
	if len(out) != len(in) {
		t.Fatalf("decoded %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if f, ok := sameEvent(in[i], out[i]); !ok {
			t.Fatalf("event %d: field %s differs:\n in  %+v\n out %+v", i, f, in[i], out[i])
		}
	}
}

// awkwardFloats are the values whose presence must be tested on their
// bits rather than by comparison with zero.
var awkwardFloats = []float64{math.NaN(), math.Float64frombits(0x7ff8dead00000001), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.SmallestNonzeroFloat64, -1.5e300, 0.1}

// awkwardStrings need JSON escapes or are not ASCII.
var awkwardStrings = []string{"lp.solve", "quote\" back\\slash\nnewline\ttab", "<html>&amp;  ", "\x00\x1f\x7f", "é漢字🙂", "\xff\xfe invalid UTF-8"}

// setField gives field f a non-zero value drawn from k.
func setField(t *testing.T, f reflect.Value, k int) {
	switch f.Kind() {
	case reflect.Int, reflect.Int64:
		vals := []int64{1, -1, 63, -64, 64, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64}
		f.SetInt(vals[k%len(vals)])
	case reflect.Float64:
		f.SetFloat(awkwardFloats[k%len(awkwardFloats)])
	case reflect.String:
		f.SetString(awkwardStrings[k%len(awkwardStrings)])
	case reflect.Bool:
		f.SetBool(true)
	default:
		t.Fatalf("Event field %s has type %s, which the record codec does not encode", f.Type().Name(), f.Type())
	}
}

// TestEventLogRoundTripsEveryField sets every Event field, found by
// reflection, so a field added to Event without a codec entry fails
// here. It checks the fields all at once and one at a time, with
// NaN payloads, infinities, negative zero, JSON-hostile and non-ASCII
// strings, and the extreme integers.
func TestEventLogRoundTripsEveryField(t *testing.T) {
	typ := reflect.TypeOf(Event{})
	if typ.NumField() > 64 {
		t.Fatalf("Event has %d fields; the record bitmap holds 64", typ.NumField())
	}
	var in []Event
	for k := 0; k < 9; k++ {
		var all Event
		v := reflect.ValueOf(&all).Elem()
		for i := 0; i < v.NumField(); i++ {
			setField(t, v.Field(i), k+i)
			var one Event
			setField(t, reflect.ValueOf(&one).Elem().Field(i), k)
			in = append(in, one)
		}
		in = append(in, all, Event{})
	}
	checkRoundTrip(t, in)
}

// randomEvent sets a random subset of fields to random values, strings
// from a small vocabulary so the string table is shared.
func randomEvent(rng *rand.Rand) Event {
	var e Event
	v := reflect.ValueOf(&e).Elem()
	for i := 0; i < v.NumField(); i++ {
		if rng.Intn(3) != 0 {
			continue
		}
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(rng.Int63n(1<<uint(rng.Intn(62)+1)) - rng.Int63n(64))
		case reflect.Float64:
			if rng.Intn(4) == 0 {
				f.SetFloat(awkwardFloats[rng.Intn(len(awkwardFloats))])
			} else {
				f.SetFloat(rng.NormFloat64() * 1e3)
			}
		case reflect.String:
			f.SetString(awkwardStrings[rng.Intn(len(awkwardStrings))])
		case reflect.Bool:
			f.SetBool(true)
		}
	}
	return e
}

// TestEventLogRandomSequences round-trips random event sequences long
// enough to fill several blocks, so records straddle block boundaries.
func TestEventLogRandomSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		in := make([]Event, rng.Intn(4000))
		for i := range in {
			in[i] = randomEvent(rng)
		}
		checkRoundTrip(t, in)
	}
}

// TestEventLogSnapshotIsStable checks that a snapshot decodes exactly
// the events appended before it, however many follow.
func TestEventLogSnapshotIsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var l EventLog
	var in []Event
	var snaps []EventLogSnapshot
	for i := 0; i < 6000; i++ {
		e := randomEvent(rng)
		in = append(in, e)
		l.Append(&e)
		if i%997 == 0 {
			snaps = append(snaps, l.Snapshot())
		}
	}
	for _, s := range snaps {
		i := 0
		s.Each(func(e Event) {
			if f, ok := sameEvent(in[i], e); !ok {
				t.Fatalf("snapshot of %d: event %d field %s differs", s.Len(), i, f)
			}
			i++
		})
		if i != s.Len() {
			t.Fatalf("snapshot of %d decoded %d events", s.Len(), i)
		}
	}
}

// searchEvents is one branch-and-bound node's worth of events as the
// solver emits them.
func searchEvents() []Event {
	return []Event{
		{T: 1_234_567, Kind: KindNodeOpen, Node: 4321, Depth: 17, BranchVar: 88, Bound: 412.37501, Worker: 2},
		{T: 1_234_601, Kind: KindLPSolve, Status: "optimal", Obj: 415.1250001, Iters: 12, Degenerate: 3, DualPivots: 12, Refactors: 1, DurUS: 34, Warm: true, Span: 4077},
		{T: 1_234_640, Kind: KindNodeClose, Node: 4321, Depth: 17, Detail: "branched", Obj: 415.1250001, Worker: 2},
	}
}

// TestEventLogAppendAllocatesOnlyBlocks checks the steady-state append
// cost: no allocation per event, and the bytes per search event that
// the service's memory figure rests on.
func TestEventLogAppendAllocatesOnlyBlocks(t *testing.T) {
	evs := searchEvents()
	var l EventLog
	allocs := testing.AllocsPerRun(3000, func() {
		for i := range evs {
			l.Append(&evs[i])
		}
	})
	if allocs != 0 {
		t.Errorf("Append allocates %.0f times per three events, want 0", allocs)
	}
	s := l.Snapshot()
	bytes := 0
	for _, b := range s.blocks[:len(s.blocks)-1] {
		bytes += len(b)
	}
	bytes += s.tail
	if per := float64(bytes) / float64(s.Len()); per > 32 {
		t.Errorf("%.1f bytes per search event, want at most 32", per)
	}
}

func BenchmarkEventLogAppend(b *testing.B) {
	evs := searchEvents()
	var l EventLog
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Append(&evs[i%len(evs)])
	}
}
