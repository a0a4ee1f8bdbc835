package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"afp/internal/obs"
)

// randomTraceEvent sets a random subset of an event's fields, found by
// reflection, to values that stress the JSON encoding: non-finite and
// negative-zero floats, escapes and non-ASCII strings, extreme integers.
func randomTraceEvent(rng *rand.Rand) obs.Event {
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e-310, 123.456}
	strs := []string{"optimal", "branched", "quote\" \\ \n\t", "<&> ", "é漢字🙂", "\xff bad UTF-8"}
	var e obs.Event
	v := reflect.ValueOf(&e).Elem()
	for i := 0; i < v.NumField(); i++ {
		if rng.Intn(3) != 0 {
			continue
		}
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(rng.Int63() >> uint(rng.Intn(63)) * int64(1-2*rng.Intn(2)))
		case reflect.Float64:
			if rng.Intn(3) == 0 {
				f.SetFloat(floats[rng.Intn(len(floats))])
			} else {
				f.SetFloat(rng.NormFloat64() * 1e4)
			}
		case reflect.String:
			f.SetString(strs[rng.Intn(len(strs))])
		case reflect.Bool:
			f.SetBool(true)
		}
	}
	return e
}

// traceKinds are the kinds randomTraceEvents draws from: the per-node
// ones the trace caps first, ones it keeps to twice the cap, and a
// kind no solver emits.
var traceKinds = []obs.Kind{obs.KindNodeOpen, obs.KindNodeClose, obs.KindNodePrune, obs.KindLPSolve,
	obs.KindStepStart, obs.KindProgress, obs.KindIncumbent, "quote\" \\ é"}

// TestTraceBufferJSONLMatchesJSONLWriter pins /v1/jobs/{id}/trace to the
// CLI -trace format: random events past the retention cap, written back
// from the binary records, equal obs.JSONLWriter over the events the
// retention rule keeps plus the truncation line, byte for byte.
func TestTraceBufferJSONLMatchesJSONLWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 499, 500, 2000, 5000} {
		const max = 500
		b := newTraceBuffer(max)
		var want bytes.Buffer
		jw := obs.NewJSONLWriter(&want)
		kept := 0
		for i := 0; i < n; i++ {
			e := randomTraceEvent(rng)
			e.Kind = traceKinds[rng.Intn(len(traceKinds))]
			b.Emit(e)
			if kept < max || !e.Kind.PerNode() && kept < 2*max {
				jw.Emit(e)
				kept++
			}
		}
		if kept < n {
			jw.Emit(obs.Event{Kind: kindTruncated, Nodes: n - kept})
		}
		if n == 5000 && kept != 2*max {
			t.Fatalf("n=%d: the rule keeps %d events, want the test to reach %d", n, kept, 2*max)
		}
		var got bytes.Buffer
		if err := b.WriteJSONL(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			g, w := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want.Bytes(), []byte("\n"))
			for i := 0; i < len(g) && i < len(w); i++ {
				if !bytes.Equal(g[i], w[i]) {
					t.Fatalf("n=%d: line %d differs:\n got  %s\n want %s", n, i+1, g[i], w[i])
				}
			}
			t.Fatalf("n=%d: wrote %d lines, want %d", n, len(g), len(w))
		}
	}
}

func TestTraceBufferCapsAndMarksTruncation(t *testing.T) {
	b := newTraceBuffer(3)
	for i := 0; i < 10; i++ {
		b.Emit(obs.Event{Kind: obs.KindLPSolve, Iters: i})
	}
	if b.Len() != 3 {
		t.Fatalf("retained %d events, want 3", b.Len())
	}
	objs, err := b.lines()
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 4 { // 3 events + truncation marker
		t.Fatalf("wrote %d lines, want 4", len(objs))
	}
	last := objs[3]
	if last["kind"] != string(kindTruncated) {
		t.Fatalf("last line = %v", last)
	}
	if last["nodes"] != float64(7) {
		t.Fatalf("dropped count = %v, want 7", last["nodes"])
	}
}

// TestTraceBufferConcurrentFollowers emits from several goroutines at
// once, as a portfolio race or a multi-worker search does, while
// followers attach mid-stream and read the log as the SSE handler
// does: a snapshot and a wake channel per turn, and the Since view of
// the previous snapshot. Every follower must reassemble the retained
// sequence with no gap and no duplicate, and every trace served
// meanwhile must be a prefix of the final one.
func TestTraceBufferConcurrentFollowers(t *testing.T) {
	const emitters, perEmitter, followers = 4, 1500, 6
	const total = emitters * perEmitter
	b := newTraceBuffer(total)
	start, emitted := make(chan struct{}), make(chan struct{})

	var emit sync.WaitGroup
	for w := 1; w <= emitters; w++ {
		emit.Add(1)
		go func(w int) {
			defer emit.Done()
			<-start
			for i := 1; i <= perEmitter; i++ {
				switch i % 3 {
				case 0:
					b.Emit(obs.Event{Kind: obs.KindLPSolve, Worker: w, Node: i, Status: "optimal", Obj: -float64(i)})
				case 1:
					b.Emit(obs.Event{Kind: obs.KindNodeOpen, Worker: w, Node: i, Depth: i % 7, Bound: float64(i) / 3})
				default:
					b.Emit(obs.Event{Kind: obs.KindProgress, Worker: w, Node: i, Nodes: i, Gap: 1 / float64(i)})
				}
			}
		}(w)
	}

	seen := make([][]obs.Event, followers)
	var follow sync.WaitGroup
	for f := 0; f < followers; f++ {
		follow.Add(1)
		go func(f int) {
			defer follow.Done()
			<-start
			for b.Len() < f*total/followers {
				runtime.Gosched() // attach mid-stream
			}
			if !b.follow() {
				t.Errorf("follower %d refused", f)
				return
			}
			defer b.unfollow()
			var got []obs.Event
			var prev obs.EventLogSnapshot
			for {
				var last bool
				select {
				case <-emitted:
					last = true
				default:
				}
				snap, _, wake := b.next()
				snap.Since(prev).Each(func(e obs.Event) { got = append(got, e) })
				prev = snap
				if last {
					break
				}
				select {
				case <-wake:
				case <-emitted:
				case <-time.After(30 * time.Second):
					t.Errorf("follower %d: stalled at %d of %d events", f, len(got), total)
					return
				}
			}
			seen[f] = got
		}(f)
	}

	// Readers serve the trace and poll Len while the emitters run.
	stop := make(chan struct{})
	var served [][]byte
	var read sync.WaitGroup
	read.Add(1)
	go func() {
		defer read.Done()
		last := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := b.Len()
			if n < last {
				t.Errorf("Len went back from %d to %d", last, n)
			}
			last = n
			var buf bytes.Buffer
			if err := b.WriteJSONL(&buf); err != nil {
				t.Errorf("WriteJSONL: %v", err)
				return
			}
			served = append(served, buf.Bytes())
		}
	}()

	close(start)
	emit.Wait()
	close(emitted)
	follow.Wait()
	close(stop)
	read.Wait()

	var final bytes.Buffer
	if err := b.WriteJSONL(&final); err != nil {
		t.Fatal(err)
	}
	for i, s := range served {
		if !bytes.HasPrefix(final.Bytes(), s) {
			t.Fatalf("served trace %d (%d bytes) is not a prefix of the final trace", i, len(s))
		}
	}
	snap, _, _ := b.next()
	var want []obs.Event
	snap.Each(func(e obs.Event) { want = append(want, e) })
	if len(want) != total {
		t.Fatalf("retained %d events, want %d", len(want), total)
	}
	// Each emitter's events are retained in its own order.
	next := map[int]int{}
	for _, e := range want {
		if e.Node <= next[e.Worker] {
			t.Fatalf("worker %d: node %d retained after node %d", e.Worker, e.Node, next[e.Worker])
		}
		next[e.Worker] = e.Node
	}
	for f, got := range seen {
		if got == nil {
			continue // reported above
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("follower %d reassembled %d events, not the %d retained", f, len(got), len(want))
		}
	}
}

// lines decodes the buffered trace back into generic JSON objects; test
// helper for validating the JSONL framing.
func (b *traceBuffer) lines() ([]map[string]any, error) {
	var sb jsonlCollector
	if err := b.WriteJSONL(&sb); err != nil {
		return nil, err
	}
	return sb.objs, sb.err
}

// jsonlCollector incrementally decodes written JSONL, line by line.
type jsonlCollector struct {
	buf  []byte
	objs []map[string]any
	err  error
}

func (c *jsonlCollector) Write(p []byte) (int, error) {
	c.buf = append(c.buf, p...)
	for {
		i := -1
		for j, ch := range c.buf {
			if ch == '\n' {
				i = j
				break
			}
		}
		if i < 0 {
			return len(p), nil
		}
		line := c.buf[:i]
		c.buf = c.buf[i+1:]
		if len(line) == 0 {
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal(line, &obj); err != nil && c.err == nil {
			c.err = err
		} else {
			c.objs = append(c.objs, obj)
		}
	}
}
