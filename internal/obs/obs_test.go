package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilObserverAllocationFree pins the hot-path contract: emitting to
// a disabled (nil) observer performs no heap allocations, so leaving
// instrumentation enabled in solver code is free when no sink is set.
func TestNilObserverAllocationFree(t *testing.T) {
	var o *Observer
	allocs := testing.AllocsPerRun(1000, func() {
		o.Emit(Event{
			Kind: KindLPSolve, Status: "optimal", Obj: 12.5,
			Iters: 42, Phase1Iters: 7, Degenerate: 3,
			DurUS: 1234, Warm: true,
		})
		if o.Enabled() {
			t.Fatal("nil observer reports enabled")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil-observer Emit allocates %v times per call, want 0", allocs)
	}
	if New(nil) != nil {
		t.Fatal("New(nil) should return the nil observer")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	o := New(w)
	if !o.Enabled() {
		t.Fatal("observer with sink not enabled")
	}
	want := []Event{
		{Kind: KindStepStart, Step: 2, Modules: 6, Covers: 3, Binaries: 24},
		{Kind: KindLPSolve, Status: "optimal", Obj: -1.5, Iters: 17, Phase1Iters: 4,
			Degenerate: 1, DualPivots: 17, DurUS: 100, Warm: true},
		{Kind: KindNodeClose, Node: 3, Depth: 2, Detail: "integer", Obj: 9},
		{Kind: KindSearchDone, Status: "optimal", Obj: 9, Bound: 9, Nodes: 5,
			Iters: 80, Gap: 0},
		{Kind: KindStepDone, Step: 2, Height: 10.25, Relaxed: true, DurUS: 2500},
	}
	for _, e := range want {
		o.Emit(e)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(want) {
		t.Fatalf("trace has %d lines, want %d", lines, len(want))
	}

	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		// The observer stamps T; compare everything else.
		if got[i].T < 0 {
			t.Fatalf("event %d has negative timestamp %d", i, got[i].T)
		}
		g := got[i]
		g.T = want[i].T
		if !reflect.DeepEqual(g, want[i]) {
			t.Fatalf("event %d round-trip mismatch:\n got %+v\nwant %+v", i, g, want[i])
		}
	}
}

func TestReadJSONLBadInput(t *testing.T) {
	_, err := ReadJSONL(strings.NewReader("{\"kind\":\"x\"}\nnot-json\n"))
	if err == nil {
		t.Fatal("expected decode error")
	}
	// The error must locate the offending line (1-based) and excerpt it.
	if !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "not-json") {
		t.Fatalf("error lacks position/excerpt: %v", err)
	}

	longLine := "{" + strings.Repeat("x", 200)
	_, err = ReadJSONL(strings.NewReader(longLine + "\n"))
	if err == nil {
		t.Fatal("expected decode error")
	}
	if !strings.Contains(err.Error(), "...") || len(err.Error()) > 200 {
		t.Fatalf("long line not truncated in error: %v", err)
	}
}

func TestReadJSONLSkipsBlankLines(t *testing.T) {
	in := "\n{\"kind\":\"node.open\",\"node\":1}\n   \n\n{\"kind\":\"node.close\",\"node\":1}\n\n"
	got, err := ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Kind != KindNodeOpen || got[1].Kind != KindNodeClose {
		t.Fatalf("decoded %+v, want the two events with blanks skipped", got)
	}
}

func TestRecorder(t *testing.T) {
	rec := &Recorder{}
	o := New(rec)
	o.Emit(Event{Kind: KindNodeOpen, Node: 1})
	o.Emit(Event{Kind: KindNodeClose, Node: 1, Detail: "branched"})
	o.Emit(Event{Kind: KindNodeOpen, Node: 2})
	if got := rec.CountKind(KindNodeOpen); got != 2 {
		t.Fatalf("CountKind(open) = %d, want 2", got)
	}
	last, ok := rec.LastKind(KindNodeOpen)
	if !ok || last.Node != 2 {
		t.Fatalf("LastKind(open) = %+v, %v", last, ok)
	}
	if _, ok := rec.LastKind(KindIncumbent); ok {
		t.Fatal("LastKind on absent kind should report false")
	}
	evs := rec.Events()
	evs[0].Node = 99 // returned slice must be a copy
	if rec.Events()[0].Node != 1 {
		t.Fatal("Events() exposed internal storage")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	rec := &Recorder{}
	o := New(rec)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				o.Emit(Event{Kind: KindProgress, Nodes: i})
			}
		}()
	}
	wg.Wait()
	if got := rec.CountKind(KindProgress); got != 800 {
		t.Fatalf("recorded %d events, want 800", got)
	}
}

func TestMultiAndLogSink(t *testing.T) {
	var buf bytes.Buffer
	rec := &Recorder{}
	o := New(Multi(nil, rec, NewLogSink(&buf)))
	o.Emit(Event{Kind: KindNodeOpen, Node: 1})                                 // suppressed by LogSink
	o.Emit(Event{Kind: KindStepDone, Step: 1, Status: "optimal", Height: 8.5}) //nolint
	o.Emit(Event{Kind: KindAnnealTemp, Temp: 2.5, Accepted: 3, Attempted: 9})
	if rec.CountKind(KindNodeOpen) != 1 {
		t.Fatal("recorder missed fanned-out event")
	}
	out := buf.String()
	if strings.Contains(out, "node.open") {
		t.Fatalf("log sink printed suppressed node event:\n%s", out)
	}
	for _, want := range []string{"step 1", "optimal", "anneal T=2.5", "3/9"} {
		if !strings.Contains(out, want) {
			t.Fatalf("log output missing %q:\n%s", want, out)
		}
	}
	if Multi() != nil {
		t.Fatal("empty Multi should be nil")
	}
	if Multi(rec) != Sink(rec) {
		t.Fatal("single-sink Multi should unwrap")
	}
}

func TestMetrics(t *testing.T) {
	var m Metrics
	m.Count("nodes", 5)
	m.Count("nodes", 7)
	m.Time("solve", 1500*time.Microsecond)
	m.Timed("solve", func() {})
	if got := m.Counter("nodes"); got != 12 {
		t.Fatalf("counter = %d, want 12", got)
	}
	snap := m.Snapshot()
	if snap["nodes"] != 12 {
		t.Fatalf("snapshot nodes = %v", snap["nodes"])
	}
	if snap["solve_ms"] < 1.5 {
		t.Fatalf("snapshot solve_ms = %v, want >= 1.5", snap["solve_ms"])
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]float64
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("metrics JSON invalid: %v\n%s", err, buf.String())
	}
	if decoded["nodes"] != 12 {
		t.Fatalf("decoded nodes = %v", decoded["nodes"])
	}

	// Nil metrics are usable no-ops.
	var nilM *Metrics
	nilM.Count("x", 1)
	nilM.Time("y", time.Second)
	nilM.Timed("z", func() {})
	if len(nilM.Snapshot()) != 0 || nilM.Counter("x") != 0 {
		t.Fatal("nil metrics should be empty")
	}
}

func TestMetricsConcurrent(t *testing.T) {
	var m Metrics
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Count("n", 1)
				m.Time("t", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if m.Counter("n") != 8000 {
		t.Fatalf("counter = %d, want 8000", m.Counter("n"))
	}
}
