package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// lruHarness drives the LRU mechanics cases against one instantiation.
// key(i) and val(i) build the i-th key and its value (distinct per i,
// equal across calls, so same can check identity), and put inserts
// through whatever admission gate the constructor installs.
type lruHarness[K comparable, V any] struct {
	newCache func(budget int64) *LRU[K, V]
	key      func(i int) K
	val      func(i int) V
	same     func(a, b V) bool
	put      func(t *testing.T, c *LRU[K, V], k K, v V, size int64) int
}

// TestLRU runs every mechanics case over both constructors.
func TestLRU(t *testing.T) {
	arts := make([]*Compiled, 32)
	for i := range arts {
		arts[i] = &Compiled{} // identity is what the cache hands out
	}
	t.Run("artifact", lruHarness[uint64, *Compiled]{
		newCache: NewArtifactCache,
		key:      func(i int) uint64 { return uint64(i) },
		val:      func(i int) *Compiled { return arts[i] },
		same:     func(a, b *Compiled) bool { return a == b },
		put: func(t *testing.T, c *LRU[uint64, *Compiled], k uint64, v *Compiled, size int64) int {
			t.Helper()
			evicted, admitted := c.Put(k, v, size)
			if !admitted {
				t.Fatalf("artifact Put of %d was not admitted", k)
			}
			return evicted
		},
	}.run)
	t.Run("outcome", lruHarness[OutcomeKey, []byte]{
		newCache: NewOutcomeCache,
		key:      okey,
		val:      func(i int) []byte { return []byte(fmt.Sprintf("body-%d", i)) },
		same:     bytes.Equal,
		put:      mustPut,
	}.run)
}

func (h lruHarness[K, V]) run(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func(*testing.T)
	}{
		{"HitMissEvict", h.hitMissEvict},
		{"KeepsNewestOversized", h.keepsNewestOversized},
		{"ReplaceAndEvict", h.replaceAndEvict},
		{"Peek", h.peek},
		{"Concurrent", h.concurrent},
	} {
		t.Run(tc.name, tc.fn)
	}
}

// hit asserts that key i is resident with its own value.
func (h lruHarness[K, V]) hit(t *testing.T, c *LRU[K, V], i int) {
	t.Helper()
	if got, ok := c.Get(h.key(i)); !ok || !h.same(got, h.val(i)) {
		t.Fatalf("entry %d lost or wrong value", i)
	}
}

func (h lruHarness[K, V]) miss(t *testing.T, c *LRU[K, V], i int) {
	t.Helper()
	if _, ok := c.Get(h.key(i)); ok {
		t.Fatalf("entry %d still served", i)
	}
}

// Eviction is strict LRU by recency of Get/Put, driven by bytes.
func (h lruHarness[K, V]) hitMissEvict(t *testing.T) {
	c := h.newCache(100)
	h.miss(t, c, 1)
	h.put(t, c, h.key(1), h.val(1), 40)
	h.put(t, c, h.key(2), h.val(2), 40)
	h.hit(t, c, 1)
	// Entry 2 is now LRU; inserting 40 more bytes must evict it, not 1.
	if n := h.put(t, c, h.key(3), h.val(3), 40); n != 1 {
		t.Fatalf("Put evicted %d entries, want 1", n)
	}
	h.miss(t, c, 2)
	h.hit(t, c, 1)
	h.hit(t, c, 3)
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 2 || st.Evictions != 1 || st.Inserts != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Entries != 2 || st.Bytes != 80 || st.Budget != 100 {
		t.Fatalf("occupancy = %+v", st)
	}
}

// The newest entry survives even when it alone exceeds the budget.
func (h lruHarness[K, V]) keepsNewestOversized(t *testing.T) {
	c := h.newCache(10)
	h.put(t, c, h.key(1), h.val(1), 5)
	h.put(t, c, h.key(2), h.val(2), 1000)
	h.hit(t, c, 2)
	h.miss(t, c, 1)
	if n := c.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

// A resident key is replaced in place — no admission round, no new
// insert, bytes re-accounted — and Evict removes it exactly once.
func (h lruHarness[K, V]) replaceAndEvict(t *testing.T) {
	c := h.newCache(100)
	h.put(t, c, h.key(7), h.val(1), 30)
	if _, admitted := c.Put(h.key(7), h.val(7), 50); !admitted {
		t.Fatal("replacing a resident key must be admitted")
	}
	st := c.Stats()
	if st.Inserts != 1 || st.Entries != 1 || st.Bytes != 50 {
		t.Fatalf("after replace: %+v", st)
	}
	h.hit(t, c, 7)
	h.miss(t, c, 8) // a different key never hits
	if !c.Evict(h.key(7)) || c.Evict(h.key(7)) {
		t.Fatal("Evict should succeed once then report absent")
	}
	h.miss(t, c, 7)
	if st := c.Stats(); st.Bytes != 0 || st.Entries != 0 || st.Evictions != 1 {
		t.Fatalf("after evict: %+v", st)
	}
}

// Peek reads without counting a hit or miss and without touching
// recency.
func (h lruHarness[K, V]) peek(t *testing.T) {
	c := h.newCache(100)
	h.put(t, c, h.key(1), h.val(1), 40)
	h.put(t, c, h.key(2), h.val(2), 40)
	if got, ok := c.Peek(h.key(1)); !ok || !h.same(got, h.val(1)) {
		t.Fatal("Peek lost entry 1")
	}
	if _, ok := c.Peek(h.key(9)); ok {
		t.Fatal("Peek hit an absent key")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Peek touched the counters: %+v", st)
	}
	// Entry 1 is still LRU despite the Peek, so it is the one evicted.
	h.put(t, c, h.key(3), h.val(3), 40)
	h.miss(t, c, 1)
	h.hit(t, c, 2)
}

func (h lruHarness[K, V]) concurrent(t *testing.T) {
	c := h.newCache(1 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := i % 17
				if v, ok := c.Get(h.key(k)); !ok {
					c.Put(h.key(k), h.val(k), 64)
				} else if !h.same(v, h.val(k)) {
					t.Errorf("wrong value for key %d", k)
					return
				}
				if i%31 == 0 {
					c.Evict(h.key(k))
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes < 0 || st.Bytes > st.Budget || st.Entries > 17 {
		t.Fatalf("inconsistent occupancy after concurrent use: %+v", st)
	}
}
