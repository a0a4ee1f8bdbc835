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

// TestTraceBufferJSONLMatchesJSONLWriter pins /v1/jobs/{id}/trace to the
// CLI -trace format: random events past the retention cap, written back
// from the binary records, equal obs.JSONLWriter over the same retained
// events plus the truncation line, byte for byte.
func TestTraceBufferJSONLMatchesJSONLWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 499, 500, 2000} {
		const max = 500
		b := newTraceBuffer(max)
		var want bytes.Buffer
		jw := obs.NewJSONLWriter(&want)
		for i := 0; i < n; i++ {
			e := randomTraceEvent(rng)
			b.Emit(e)
			if i < max {
				jw.Emit(e)
			}
		}
		if n > max {
			jw.Emit(obs.Event{Kind: kindTruncated, Nodes: n - max})
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

// TestTraceBufferConcurrentFollowers emits from several goroutines at
// once, as a portfolio race or a multi-worker search does, while
// followers subscribe mid-stream and readers serve the trace. Every
// follower whose channel can hold the whole stream must see replay plus
// live events equal to the retained sequence, with no gap and no
// duplicate; every served trace must be a prefix of the final one.
func TestTraceBufferConcurrentFollowers(t *testing.T) {
	const emitters, perEmitter, followers = 4, 1500, 6
	const total = emitters * perEmitter
	b := newTraceBuffer(total)
	start := make(chan struct{})

	var emit sync.WaitGroup
	for w := 1; w <= emitters; w++ {
		emit.Add(1)
		go func(w int) {
			defer emit.Done()
			<-start
			for i := 1; i <= perEmitter; i++ {
				if i%3 == 0 {
					b.Emit(obs.Event{Kind: obs.KindLPSolve, Worker: w, Node: i, Status: "optimal", Obj: -float64(i)})
				} else {
					b.Emit(obs.Event{Kind: obs.KindNodeOpen, Worker: w, Node: i, Depth: i % 7, Bound: float64(i) / 3})
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
			replay, sub, ok := b.subscribe(total)
			if !ok {
				t.Errorf("follower %d refused", f)
				return
			}
			got := events(replay)
			timeout := time.After(30 * time.Second)
			for len(got) < total {
				select {
				case e := <-sub.ch:
					got = append(got, e)
				case <-timeout:
					t.Errorf("follower %d: stalled at %d of %d events", f, len(got), total)
					b.unsubscribe(sub)
					return
				}
			}
			if lost := b.unsubscribe(sub); lost != 0 {
				t.Errorf("follower %d lost %d events", f, lost)
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
	snap, sub, ok := b.subscribe(1)
	if !ok {
		t.Fatal("final subscribe refused")
	}
	b.unsubscribe(sub)
	want := events(snap)
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
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("follower %d: event %d = %+v, want %+v", f, i, got[i], want[i])
			}
		}
	}
}

// events decodes a replay snapshot into a slice.
func events(snap obs.EventLogSnapshot) []obs.Event {
	out := make([]obs.Event, 0, snap.Len())
	snap.Each(func(e obs.Event) { out = append(out, e) })
	return out
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
