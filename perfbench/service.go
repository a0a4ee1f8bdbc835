package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"sync"
	"time"

	"afp/internal/obs"
	"afp/internal/server"
)

const (
	serviceClients = 2
	// serviceSlots is floorpland's shipped default of two concurrent
	// solves, each running the serial search. One slot with workers:2
	// exercised the parallel search, but its run-to-run node counts made
	// the medians spread by 23-30% between runs of the same catalogue.
	serviceSlots = 2
	repeatEvery  = 4 // one request in four repeats an earlier one
	// perSize is how many fresh designs of each size a client requests.
	perSize = 9
)

// catalogue returns client c's fresh designs as (modules, generator seed)
// pairs for the "rand" generator: perSize designs of every size from 10
// to 15 modules, with serial solve times from about 10ms to 1.5s. The
// workload seed orders them and picks the repeats; the designs themselves
// are fixed, so every run solves the same multiset of designs and the
// spread between runs reflects the server, not the draw.
func catalogue(c int) [][2]int64 {
	var out [][2]int64
	for n := int64(10); n <= 15; n++ {
		for k := 0; k < perSize; k++ {
			out = append(out, [2]int64{n, int64(100*(k*serviceClients+c+1)) + n})
		}
	}
	return out
}

// request is one POST /v1/solve of a client's sequence.
type request struct {
	n, seed  int64
	repeatOf int // index of the earlier request this one repeats, or -1
}

// serviceSequence is client c's request list for a workload seed: blocks
// of three fresh requests, in a seeded order of the client's catalogue,
// followed by one repeat of a uniformly chosen earlier fresh request of
// the same client.
func serviceSequence(seed int64, c int) []request {
	rng := rand.New(rand.NewSource(seed*int64(serviceClients) + int64(c)))
	cat := catalogue(c)
	var seq []request
	var fresh []int
	for _, k := range rng.Perm(len(cat)) {
		seq = append(seq, request{n: cat[k][0], seed: cat[k][1], repeatOf: -1})
		fresh = append(fresh, len(seq)-1)
		if len(fresh)%(repeatEvery-1) == 0 {
			orig := fresh[rng.Intn(len(fresh))]
			seq = append(seq, request{n: seq[orig].n, seed: seq[orig].seed, repeatOf: orig})
		}
	}
	return seq
}

// service is one in-process floorpland on a loopback listener.
type service struct {
	srv    *server.Server
	http   *http.Server
	base   string
	client *http.Client
	served chan error
	traced bool // fetch and fold every fresh job's trace
}

// startService boots a server with floorpland's defaults. A traced
// service retains each job's whole trace, which the client fetches from
// /v1/jobs/{id}/trace and folds per job: concurrent jobs each number
// their spans from 1, so one shared sink could not tell them apart. Job
// history is capped so the retained traces stay small.
func startService(traced bool) (*service, error) {
	cfg := server.Config{Workers: serviceSlots}
	if traced {
		cfg.TraceEvents, cfg.MaxJobs = 1<<22, 4*serviceClients
	}
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &service{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: serviceClients, MaxIdleConnsPerHost: serviceClients}},
		served: make(chan error, 1),
		traced: traced,
	}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// close stops the HTTP server and drains the solver, waiting for both.
func (s *service) close() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := s.srv.Shutdown(ctx); err == nil {
		err = derr
	}
	return err
}

// reply is the client's view of one request.
type reply struct {
	dur, submit, result time.Duration
	cached              bool
	rejected            bool
	payload             *server.ResultPayload
	layers              FoldTotals // the job's folded trace, on a traced service
}

type submitBody struct {
	ID     string `json:"id"`
	Cached bool   `json:"cached"`
}

// do sends one request through the whole client path: POST, follow the
// job's event stream to its terminal frame, GET the result.
func (s *service) do(r request) (reply, error) {
	var rep reply
	body, _ := json.Marshal(server.SolveRequest{
		Generate: "rand", N: int(r.n), Seed: r.seed,
		Options: server.SolveOptions{GroupSize: 3},
	})
	start := time.Now()
	resp, err := s.client.Post(s.base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return rep, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep.submit = time.Since(start)
	if err != nil {
		return rep, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		rep.rejected = true
		return rep, fmt.Errorf("rand%d/%d: rejected with 429", r.n, r.seed)
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("rand%d/%d: submit status %d: %s", r.n, r.seed, resp.StatusCode, raw)
	}
	var sub submitBody
	if err := json.Unmarshal(raw, &sub); err != nil {
		return rep, fmt.Errorf("decoding submit response: %w", err)
	}
	rep.cached = sub.Cached

	state, err := s.follow(sub.ID)
	if err != nil {
		return rep, err
	}
	if state != server.StateDone {
		return rep, fmt.Errorf("rand%d/%d: job ended %s", r.n, r.seed, state)
	}
	t := time.Now()
	resp, err = s.client.Get(s.base + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("rand%d/%d: result status %d", r.n, r.seed, resp.StatusCode)
	}
	rep.payload = new(server.ResultPayload)
	if err := json.NewDecoder(resp.Body).Decode(rep.payload); err != nil {
		return rep, fmt.Errorf("decoding result: %w", err)
	}
	rep.result = time.Since(t)
	rep.dur = time.Since(start)
	p := rep.payload
	switch {
	case p.Partial || p.Placed != p.Modules:
		return rep, fmt.Errorf("rand%d/%d: partial result, %d of %d placed", r.n, r.seed, p.Placed, p.Modules)
	case len(p.Violations) > 0:
		return rep, fmt.Errorf("rand%d/%d: %d violations, first: %s", r.n, r.seed, len(p.Violations), p.Violations[0])
	}
	if s.traced && !rep.cached {
		rep.layers, err = s.foldTrace(sub.ID)
	}
	return rep, err
}

// foldTrace fetches a finished job's JSONL trace and folds it.
func (s *service) foldTrace(id string) (FoldTotals, error) {
	resp, err := s.client.Get(s.base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		return FoldTotals{}, err
	}
	defer resp.Body.Close()
	events, err := obs.ReadJSONL(resp.Body)
	if err != nil {
		return FoldTotals{}, fmt.Errorf("trace %s: %w", id, err)
	}
	f := NewFold()
	for _, e := range events {
		if e.Kind == "trace.truncated" {
			return FoldTotals{}, fmt.Errorf("trace %s: truncated", id)
		}
		f.Emit(e)
	}
	return f.Totals(), nil
}

// follow reads /v1/jobs/{id}/events up to the terminal `event: job`
// frame and returns the job's final state.
func (s *service) follow(id string) (server.State, error) {
	resp, err := s.client.Get(s.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events %s: status %d", id, resp.StatusCode)
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	terminal := false
	for {
		line, err := br.ReadSlice('\n')
		if err != nil && !errors.Is(err, bufio.ErrBufferFull) {
			return "", fmt.Errorf("events %s: stream ended before the terminal frame: %w", id, err)
		}
		switch {
		case bytes.Equal(line, []byte("event: job\n")):
			terminal = true
		case terminal && bytes.HasPrefix(line, []byte("data: ")):
			var v server.JobView
			if err := json.Unmarshal(bytes.TrimSpace(line[len("data: "):]), &v); err != nil {
				return "", fmt.Errorf("events %s: terminal frame: %w", id, err)
			}
			return v.State, nil
		}
	}
}

// serverCounters reads the JSON /metrics snapshot.
func (s *service) serverCounters() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return out, nil
}

// drivePhase is the outcome of both clients' closed loops.
type drivePhase struct {
	replies  []reply
	elapsed  time.Duration
	failures []string
	attempts int
	rejected int
	// Server-side counter deltas over the phase, and the queue-wait
	// median over the server's lifetime.
	cacheHits, submitted, queueWaitP50 float64
	layers                             FoldTotals // summed over traced jobs
}

// drive runs the clients' closed loops: each client sends its next
// request only after the previous reply is read and checked, and starts
// no new block of repeatEvery requests once budget has elapsed.
func (s *service) drive(seqs [serviceClients][]request, budget time.Duration) drivePhase {
	var ph drivePhase
	before, err := s.serverCounters()
	if err != nil {
		ph.failures = append(ph.failures, err.Error())
		return ph
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(seq []request) {
			defer wg.Done()
			got := make([]*server.ResultPayload, len(seq))
			for i, r := range seq {
				if i%repeatEvery == 0 && time.Since(start) >= budget {
					return
				}
				rep, err := s.do(r)
				if err == nil && r.repeatOf >= 0 {
					err = checkRepeat(r, rep, got[r.repeatOf])
				}
				got[i] = rep.payload
				mu.Lock()
				ph.attempts++
				if rep.rejected {
					ph.rejected++
				}
				if err != nil {
					ph.failures = append(ph.failures, err.Error())
				} else {
					ph.replies = append(ph.replies, rep)
					ph.layers.add(rep.layers)
				}
				mu.Unlock()
			}
		}(seqs[c])
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	after, err := s.serverCounters()
	if err != nil {
		ph.failures = append(ph.failures, err.Error())
		return ph
	}
	ph.cacheHits = after["cache_hit"] - before["cache_hit"]
	ph.submitted = after["jobs_submitted"] - before["jobs_submitted"]
	ph.queueWaitP50 = after["queue_wait_us_p50"]
	return ph
}

// checkRepeat requires a repeated request to be served from the cache
// with exactly the original's result.
func checkRepeat(r request, rep reply, orig *server.ResultPayload) error {
	switch {
	case !rep.cached:
		return fmt.Errorf("rand%d/%d: repeat was not a cache hit", r.n, r.seed)
	case orig == nil:
		return fmt.Errorf("rand%d/%d: repeat of a request that failed", r.n, r.seed)
	case !reflect.DeepEqual(rep.payload, orig):
		return fmt.Errorf("rand%d/%d: cache hit returned a different result", r.n, r.seed)
	}
	return nil
}

// warmupRequest is outside the catalogue (8 modules), so it never turns
// a measured request into a cache hit.
var warmupRequest = request{n: 8, seed: 1, repeatOf: -1}

// runService executes one service workload run and returns its report.
func runService(a args, processStart time.Time) *report {
	rep := newReport("service", a)
	var seqs [serviceClients][]request
	var setups []float64
	var svc *service
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		if i == 0 {
			t = processStart
		}
		for c := range seqs {
			seqs[c] = serviceSequence(a.seed, c)
		}
		s, err := startService(false)
		if err == nil {
			if _, err = s.do(warmupRequest); err != nil {
				_ = s.close() // the warm-up error is the one to report
			}
		}
		if err != nil {
			rep.fail("set-up: " + err.Error())
			return rep
		}
		setups = append(setups, time.Since(t).Seconds())
		if i < setupReps-1 {
			if err := s.close(); err != nil {
				rep.fail("closing set-up server: " + err.Error())
				return rep
			}
		}
		svc = s
	}
	rep.setup(setups)

	plain := svc.drive(seqs, a.seconds)
	if err := svc.close(); err != nil {
		rep.fail("closing server: " + err.Error())
	}
	rep.addPhase(plain.attempts, plain.failures)
	times := replyTimes(plain.replies)
	rep.samples["solve_ms"] = len(times)

	if !a.trace {
		var util, hpwl, area []float64
		for _, r := range plain.replies {
			util = append(util, 100*r.payload.Utilization)
			hpwl = append(hpwl, r.payload.HPWL)
			area = append(area, r.payload.Area)
		}
		rep.endToEnd(times, plain.elapsed, mean(util), mean(hpwl), mean(area))
		return rep
	}

	tsvc, err := startService(true)
	if err != nil {
		rep.fail(err.Error())
		return rep
	}
	traced := tsvc.drive(seqs, a.seconds)
	if err := tsvc.close(); err != nil {
		rep.fail("closing traced server: " + err.Error())
	}
	rep.addPhase(traced.attempts, traced.failures)
	fresh := 0
	L := layerInputs{fold: traced.layers, service: true}
	var submit, result []float64
	for _, r := range traced.replies {
		submit = append(submit, ms(r.submit))
		result = append(result, ms(r.result))
		if r.cached {
			continue
		}
		fresh++
		for _, st := range r.payload.Steps {
			L.steps++
			L.binaries += float64(st.Binaries)
			L.nodes += float64(st.Nodes)
			if st.Status == "optimal" {
				L.proven++
			}
		}
	}
	if fresh == 0 {
		rep.fail("traced phase completed no fresh solve")
		return rep
	}
	L.solves = float64(fresh)
	L.tracedP50, L.plainP50 = median(replyTimes(traced.replies)), median(times)
	L.submitP50, L.resultP50 = median(submit), median(result)
	L.queueWaitP50 = traced.queueWaitP50 / 1000
	if traced.submitted > 0 {
		L.cacheHitRatio = traced.cacheHits / traced.submitted
	}
	L.rejected = float64(plain.rejected + traced.rejected)
	rep.perLayer(L)
	rep.note(fmt.Sprintf("per-solve layer means are over %d fresh solves; cache hits emit no solver events", fresh))
	return rep
}

func replyTimes(rs []reply) []float64 {
	ts := make([]float64, len(rs))
	for i, r := range rs {
		ts[i] = ms(r.dur)
	}
	return ts
}
