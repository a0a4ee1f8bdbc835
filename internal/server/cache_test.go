package server

import (
	"fmt"
	"sync"
	"testing"
)

func TestResultCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	r := func(i int) *ResultPayload { return &ResultPayload{Area: float64(i)} }
	c.put("a", r(1))
	c.put("b", r(2))
	if _, ok := c.get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.put("c", r(3))
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted despite being recently used")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c missing")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}
}

func TestResultCacheUpdateInPlace(t *testing.T) {
	c := newResultCache(2)
	c.put("k", &ResultPayload{Area: 1})
	c.put("k", &ResultPayload{Area: 2})
	got, ok := c.get("k")
	if !ok || got.Area != 2 {
		t.Fatalf("got %+v", got)
	}
	if c.len() != 1 {
		t.Fatalf("len = %d after double put", c.len())
	}
}

func TestResultCacheDisabled(t *testing.T) {
	c := newResultCache(0)
	c.put("k", &ResultPayload{})
	if _, ok := c.get("k"); ok {
		t.Fatal("disabled cache stored a value")
	}
}

func TestResultCacheConcurrent(t *testing.T) {
	c := newResultCache(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g+i)%16)
				c.put(k, &ResultPayload{Area: float64(i)})
				c.get(k)
			}
		}(g)
	}
	wg.Wait()
	if c.len() > 8 {
		t.Fatalf("len = %d exceeds capacity", c.len())
	}
}
