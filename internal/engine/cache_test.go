package engine

import (
	"sync"
	"testing"
)

// TestLRU pins the generic cache's contract: a Get refreshes recency so
// the least recently used entry is the one evicted, accept and keep gate
// reads and replacements, clone isolates resident values, zero capacity
// stores nothing, and concurrent use keeps the capacity bound.
func TestLRU(t *testing.T) {
	c := newLRU[int, int](2, nil)
	c.Put(1, 10, nil)
	c.Put(2, 20, nil)
	if _, ok := c.Get(1, nil); !ok {
		t.Fatal("resident key 1 missed")
	}
	if ev := c.Put(3, 30, nil); ev != 1 {
		t.Fatalf("Put over capacity evicted %d, want 1", ev)
	}
	if _, ok := c.Get(2, nil); ok {
		t.Error("key 2 survived; the least recently used entry must go")
	}
	if v, ok := c.Get(1, nil); !ok || v != 10 {
		t.Errorf("key 1 = %v, %v; want 10, true", v, ok)
	}

	if _, ok := c.Get(1, func(v int) bool { return v > 10 }); ok {
		t.Error("Get returned a value accept refused")
	}
	c.Put(1, 5, func(old int) bool { return old > 5 })
	c.Put(3, 40, func(old int) bool { return old > 40 })
	if v, _ := c.Get(1, nil); v != 10 {
		t.Errorf("kept value replaced: key 1 = %d, want 10", v)
	}
	if v, _ := c.Get(3, nil); v != 40 {
		t.Errorf("unkept value not replaced: key 3 = %d, want 40", v)
	}

	cl := newLRU[int, []int](1, func(s []int) []int { return append([]int(nil), s...) })
	in := []int{1}
	cl.Put(0, in, nil)
	in[0] = 2
	out, _ := cl.Get(0, nil)
	out[0] = 3
	if again, _ := cl.Get(0, nil); again[0] != 1 {
		t.Errorf("resident value = %d, want 1: clone must isolate callers", again[0])
	}

	off := newLRU[int, int](0, nil)
	off.Put(1, 1, nil)
	if _, ok := off.Get(1, nil); ok || off.Len() != 0 {
		t.Error("zero-capacity cache stored an entry")
	}

	shared := newLRU[int, int](8, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				shared.Put((g*7+i)%32, i, func(old int) bool { return old > i })
				shared.Get(i%32, nil)
			}
		}(g)
	}
	wg.Wait()
	if n := shared.Len(); n != 8 {
		t.Errorf("Len = %d after concurrent use, want capacity 8", n)
	}
}
