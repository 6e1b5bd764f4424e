package core

import (
	"sync"
	"time"

	"peertrack/internal/ids"
	"peertrack/internal/moods"
	"peertrack/internal/probe"
)

// The peer's two bounded tables. Each owns its mutex and allocates on
// first write: most peers of an XL network never resolve a gateway or
// defer a stitch.

// refCache is a fixed-capacity LRU map from packed prefix-group key to
// the resolved gateway, named by its address's ref in the peer's
// nameTable: 24 bytes a slot. Entries live in a slot arena threaded by
// an intrusive doubly-linked recency list and indexed by key, so the
// cache costs one table and one slice regardless of churn — no
// per-entry heap nodes, and the peer's memory for cached resolutions is
// bounded no matter how many distinct prefixes it ever contacts. The
// zero value with cap set is an empty cache. A plain mutex: a read
// promotes its entry, so it writes.
type refCache struct {
	cap int // at least one entry is kept whatever it says

	mu    sync.Mutex
	index *probe.Table // nil until the first put
	slots []refSlot
	head  int32 // most recently used; -1 when empty
	tail  int32 // least recently used; -1 when empty
}

type refSlot struct {
	key        ids.PrefixKey
	node       nameRef // the gateway's address
	prev, next int32   // recency list neighbours; -1 terminates
}

func (c *refCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.slots)
}

// get returns the cached gateway for key and marks it most recently
// used.
func (c *refCache) get(key ids.PrefixKey) (nameRef, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.find(probe.Uint64(uint64(key)), key)
	if !ok {
		return 0, false
	}
	c.touch(i)
	return c.slots[i].node, true
}

// put inserts or refreshes a resolution, evicting the least recently
// used entry at capacity.
func (c *refCache) put(key ids.PrefixKey, node nameRef) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := probe.Uint64(uint64(key))
	if i, ok := c.find(h, key); ok {
		c.slots[i].node = node
		c.touch(i)
		return
	}
	if c.index == nil {
		c.index = new(probe.Table)
		c.head, c.tail = -1, -1
	}
	var i int32
	if len(c.slots) < max(c.cap, 1) {
		i = int32(len(c.slots))
		c.slots = append(c.slots, refSlot{})
	} else {
		// Reuse the LRU slot.
		i = c.tail
		c.unlink(i)
		c.index.Delete(probe.Uint64(uint64(c.slots[i].key)), i)
	}
	c.slots[i] = refSlot{key: key, node: node, prev: -1, next: -1}
	c.index.Insert(h, i)
	c.pushFront(i)
}

// remove drops key from the cache if present (stale resolution).
func (c *refCache) remove(key ids.PrefixKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.removeLocked(key)
}

// find returns the slot of key, hashed h.
func (c *refCache) find(h uint64, key ids.PrefixKey) (int32, bool) {
	return c.index.Find(h, func(i int32) bool { return c.slots[i].key == key })
}

func (c *refCache) removeLocked(key ids.PrefixKey) {
	h := probe.Uint64(uint64(key))
	i, ok := c.find(h, key)
	if !ok {
		return
	}
	c.unlink(i)
	c.index.Delete(h, i)
	// The slot stays allocated and is reused by a future eviction-free
	// put only after the arena refills; mark it empty for clarity.
	c.slots[i] = refSlot{prev: -1, next: -1}
	// Reclaim the slot immediately: swap the arena's last slot into i so
	// len(slots) keeps matching the live-entry count.
	last := int32(len(c.slots) - 1)
	if i != last {
		moved := c.slots[last]
		c.relink(last, i)
		c.slots[i] = moved
		c.index.Delete(probe.Uint64(uint64(moved.key)), last)
		c.index.Insert(probe.Uint64(uint64(moved.key)), i)
	}
	c.slots = c.slots[:last]
}

// relink updates the neighbours (and head/tail) of the slot moving from
// index from to index to. The slot contents are copied by the caller.
func (c *refCache) relink(from, to int32) {
	s := c.slots[from]
	if s.prev >= 0 {
		c.slots[s.prev].next = to
	} else if c.head == from {
		c.head = to
	}
	if s.next >= 0 {
		c.slots[s.next].prev = to
	} else if c.tail == from {
		c.tail = to
	}
}

// removeNode drops every cached resolution pointing at node, returning
// the number of entries evicted. Linear in the live entry count — dead
// verdicts are rare relative to lookups, and the arena is bounded.
func (c *refCache) removeNode(node nameRef) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := 0
	for i := 0; i < len(c.slots); {
		if c.slots[i].node == node {
			// removeLocked swaps the arena's last slot into i, so do not
			// advance: the swapped-in entry still needs inspection.
			c.removeLocked(c.slots[i].key)
			removed++
			continue
		}
		i++
	}
	return removed
}

// reset empties the cache.
func (c *refCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.index, c.slots = nil, nil
}

func (c *refCache) touch(i int32) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.pushFront(i)
}

func (c *refCache) unlink(i int32) {
	s := &c.slots[i]
	if s.prev >= 0 {
		c.slots[s.prev].next = s.next
	} else if c.head == i {
		c.head = s.next
	}
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else if c.tail == i {
		c.tail = s.prev
	}
	s.prev, s.next = -1, -1
}

func (c *refCache) pushFront(i int32) {
	s := &c.slots[i]
	s.prev, s.next = -1, c.head
	if c.head >= 0 {
		c.slots[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

// lateStitchRetries bounds how many times a late-visit stitch is
// deferred on an unreachable chain segment before the gateway gives up
// linking it. Transient faults (crashed or partitioned nodes) heal
// within a few flush retries; a failure that persists this long means
// the segment's records left the network with a departed node and can
// never be fetched again.
const lateStitchRetries = 8

// maxLateTracked bounds how many late events can have live retry
// counters at once. A counter costs ~64 bytes; during a long partition
// every deferred event would otherwise grow the map without bound. An
// event arriving with the table full is abandoned immediately — the
// same terminal outcome a full retry budget reaches, just sooner.
const maxLateTracked = 4096

// lateKey identifies one late-reported visit: a comparable struct, so
// tracking costs no formatting allocation.
type lateKey struct {
	obj moods.ObjectID
	nd  moods.NodeName
	at  time.Duration
}

// lateTable counts consecutive failed attempts to stitch a late-reported
// visit. It is bounded by lateStitchRetries, so records lost with a
// departed node cannot defer an event forever, and by maxLateTracked
// entries in all.
type lateTable struct {
	mu    sync.Mutex
	tries map[lateKey]int
}

// lateRetry accounts one failed stitch attempt for the (obj, nd, at)
// late event and reports whether the caller should defer and retry; if
// not, the event is abandoned and no longer tracked.
func (t *lateTable) lateRetry(obj moods.ObjectID, nd moods.NodeName, at time.Duration) bool {
	key := lateKey{obj: obj, nd: nd, at: at}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, tracked := t.tries[key]; !tracked && len(t.tries) >= maxLateTracked {
		return false
	}
	if t.tries == nil {
		t.tries = make(map[lateKey]int)
	}
	t.tries[key]++
	if t.tries[key] < lateStitchRetries {
		return true
	}
	delete(t.tries, key)
	return false
}

// lateForget clears the retry counter after an attempt that reached the
// insertion point.
func (t *lateTable) lateForget(obj moods.ObjectID, nd moods.NodeName, at time.Duration) {
	t.mu.Lock()
	delete(t.tries, lateKey{obj: obj, nd: nd, at: at})
	t.mu.Unlock()
}

// TrackedLateEvents returns the number of live late-stitch retry
// counters (test hook for the maxLateTracked bound).
func (t *lateTable) TrackedLateEvents() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.tries)
}
