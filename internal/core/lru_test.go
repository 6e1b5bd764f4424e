package core

import (
	"fmt"
	"testing"
	"time"

	"peertrack/internal/ids"
	"peertrack/internal/moods"
)

func refFor(i int) (ids.PrefixKey, moods.NodeName) {
	pfx := ids.MustParsePrefix(fmt.Sprintf("%08b", i))
	return pfx.Key(), moods.NodeName(fmt.Sprintf("n-%03d", i))
}

// nodeFor is the ref a cache test files under key i.
func nodeFor(i int) nameRef { return nameRef(100 + i) }

func TestRefCacheEvictsLRU(t *testing.T) {
	c := &refCache{cap: 3}
	for i := 0; i < 3; i++ {
		key, _ := refFor(i)
		c.put(key, nodeFor(i))
	}
	// Touch key 0 so key 1 is the LRU victim when key 3 arrives.
	k0, _ := refFor(0)
	if _, ok := c.get(k0); !ok {
		t.Fatal("key 0 missing before eviction")
	}
	k3, _ := refFor(3)
	c.put(k3, nodeFor(3))
	if c.len() != 3 {
		t.Fatalf("len = %d, want 3 (bounded)", c.len())
	}
	k1, _ := refFor(1)
	if _, ok := c.get(k1); ok {
		t.Fatal("LRU key 1 survived eviction")
	}
	for _, i := range []int{0, 2, 3} {
		k, _ := refFor(i)
		if _, ok := c.get(k); !ok {
			t.Fatalf("key %d evicted, want kept", i)
		}
	}
}

func TestRefCacheUpdateExistingDoesNotGrow(t *testing.T) {
	c := &refCache{cap: 2}
	k0, _ := refFor(0)
	c.put(k0, nodeFor(0))
	c.put(k0, nodeFor(7))
	if c.len() != 1 {
		t.Fatalf("len = %d after double put of one key, want 1", c.len())
	}
	node, ok := c.get(k0)
	if !ok || node != nodeFor(7) {
		t.Fatalf("get = %v %v, want the updated node", node, ok)
	}
}

func TestRefCacheRemoveAndReset(t *testing.T) {
	c := &refCache{cap: 4}
	for i := 0; i < 4; i++ {
		k, _ := refFor(i)
		c.put(k, nodeFor(i))
	}
	k2, _ := refFor(2)
	c.remove(k2)
	if c.len() != 3 {
		t.Fatalf("len = %d after remove, want 3", c.len())
	}
	if _, ok := c.get(k2); ok {
		t.Fatal("removed key still present")
	}
	// The survivors must be intact after the swap-with-last compaction.
	for _, i := range []int{0, 1, 3} {
		k, _ := refFor(i)
		node, ok := c.get(k)
		if !ok || node != nodeFor(i) {
			t.Fatalf("key %d corrupted after remove: %v %v", i, node, ok)
		}
	}
	c.reset()
	if c.len() != 0 {
		t.Fatalf("len = %d after reset, want 0", c.len())
	}
	k0, _ := refFor(0)
	if _, ok := c.get(k0); ok {
		t.Fatal("reset cache still answers")
	}
}

func TestRefCacheEvictionChurn(t *testing.T) {
	// Long insert stream through a small cache: len never exceeds cap
	// and the most recent cap keys are exactly the residents.
	const cap = 8
	c := &refCache{cap: cap}
	for i := 0; i < 1000; i++ {
		k, _ := refFor(i % 200)
		c.put(k, nodeFor(i%200))
		if c.len() > cap {
			t.Fatalf("len = %d exceeds cap %d at i=%d", c.len(), cap, i)
		}
	}
	if c.len() != cap {
		t.Fatalf("len = %d, want %d", c.len(), cap)
	}
}

func TestGatewayCacheBounded(t *testing.T) {
	// A peer touching many distinct prefix groups must keep its gateway
	// cache at the configured bound.
	const bound = 4
	nw := buildNet(t, 16, Config{Mode: GroupIndexing, GatewayCacheSize: bound})
	p := nw.Peers()[0]
	for i := 0; i < 200; i++ {
		nw.ScheduleObservation(moods.Observation{
			Object: moods.ObjectID(fmt.Sprintf("lru-obj-%04d", i)),
			Node:   p.Name(),
			At:     time.Duration(i) * 10 * time.Millisecond,
		})
	}
	nw.StartWindows(3 * time.Second)
	nw.Run()
	if got := p.CachedGateways(); got > bound {
		t.Fatalf("CachedGateways = %d, want <= %d", got, bound)
	}
	if got := p.CachedGateways(); got == 0 {
		t.Fatal("cache empty after workload; bound test proved nothing")
	}
}

func TestLateTriesBounded(t *testing.T) {
	nw := buildNet(t, 4, Config{})
	p := nw.Peers()[0]
	// Fill the table: each distinct late event under the cap defers.
	for i := 0; i < maxLateTracked; i++ {
		obj := moods.ObjectID(fmt.Sprintf("late-%05d", i))
		if !p.lateRetry(obj, "n", time.Second) {
			t.Fatalf("late event %d not deferred below the cap", i)
		}
	}
	if got := p.TrackedLateEvents(); got != maxLateTracked {
		t.Fatalf("TrackedLateEvents = %d, want %d", got, maxLateTracked)
	}
	// At the cap a NEW late event is abandoned immediately...
	if p.lateRetry("late-overflow", "n", time.Second) {
		t.Fatal("late event above the cap was deferred")
	}
	if got := p.TrackedLateEvents(); got > maxLateTracked {
		t.Fatalf("TrackedLateEvents = %d exceeds cap %d", got, maxLateTracked)
	}
	// ...but an already-tracked event still consumes its retry budget.
	if !p.lateRetry("late-00000", "n", time.Second) {
		t.Fatal("tracked event denied retry at the cap")
	}
	// Forgetting frees a slot for new events.
	p.lateForget("late-00001", "n", time.Second)
	if !p.lateRetry("late-fresh", "n", time.Second) {
		t.Fatal("late event denied after a slot was freed")
	}
}
