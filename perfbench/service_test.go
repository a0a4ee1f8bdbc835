package main

import (
	"reflect"
	"testing"
	"time"
)

// hits counts the requests of seq whose design an earlier request of the
// same sequence already asked for: the cache hits the server must serve.
func hits(seq []request) int {
	seen := map[[2]int64]bool{}
	n := 0
	for _, r := range seq {
		k := [2]int64{r.n, r.seed}
		if seen[k] {
			n++
		}
		seen[k] = true
	}
	return n
}

func TestServiceSequenceDeterministic(t *testing.T) {
	for c := 0; c < serviceClients; c++ {
		a, b := serviceSequence(7, c), serviceSequence(7, c)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("client %d: same seed gave different sequences", c)
		}
		if hits(a) != hits(b) || hits(a) != len(a)/repeatEvery {
			t.Fatalf("client %d: %d and %d cache hits in %d requests, want %d",
				c, hits(a), hits(b), len(a), len(a)/repeatEvery)
		}
		if reflect.DeepEqual(a, serviceSequence(8, c)) {
			t.Errorf("client %d: seeds 7 and 8 gave the same sequence", c)
		}
	}
}

func TestServiceSequenceShape(t *testing.T) {
	other := map[[2]int64]bool{}
	for _, r := range serviceSequence(3, 1) {
		other[[2]int64{r.n, r.seed}] = true
	}
	seq := serviceSequence(3, 0)
	fresh := map[[2]int64]bool{}
	for i, r := range seq {
		k := [2]int64{r.n, r.seed}
		if other[k] {
			t.Fatalf("request %d (%v) is also in the other client's sequence", i, k)
		}
		if (i+1)%repeatEvery != 0 {
			if r.repeatOf != -1 || fresh[k] {
				t.Fatalf("request %d should be a fresh design", i)
			}
			fresh[k] = true
			continue
		}
		if r.repeatOf < 0 || r.repeatOf >= i || seq[r.repeatOf].repeatOf != -1 ||
			seq[r.repeatOf].n != r.n || seq[r.repeatOf].seed != r.seed {
			t.Fatalf("request %d should repeat an earlier fresh request, got %+v", i, r)
		}
	}
	if len(fresh) != len(catalogue(0)) {
		t.Fatalf("%d fresh designs, want the whole catalogue of %d", len(fresh), len(catalogue(0)))
	}
}

// TestServiceCacheHitsThroughServer drives one block per client through an
// in-process server and checks that the server reports exactly the
// sequence's repeats as cache hits.
func TestServiceCacheHitsThroughServer(t *testing.T) {
	s, err := startService(false)
	if err != nil {
		t.Fatal(err)
	}
	var seqs [serviceClients][]request
	for c := range seqs {
		base := int64(10 * (c + 1))
		seqs[c] = []request{
			{n: 6, seed: base + 1, repeatOf: -1},
			{n: 6, seed: base + 2, repeatOf: -1},
			{n: 7, seed: base + 3, repeatOf: -1},
			{n: 6, seed: base + 2, repeatOf: 1},
		}
	}
	ph := s.drive(seqs, time.Minute)
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	if len(ph.failures) > 0 {
		t.Fatalf("failures: %v", ph.failures)
	}
	if ph.attempts != 8 || ph.submitted != 8 || ph.cacheHits != 2 {
		t.Fatalf("attempts %d, submitted %v, cache hits %v; want 8, 8, 2", ph.attempts, ph.submitted, ph.cacheHits)
	}
}
