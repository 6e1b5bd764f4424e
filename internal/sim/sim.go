// Package sim provides a deterministic discrete-event simulation kernel.
//
// It is the substitute for the OverSim simulator used in the paper's
// evaluation: events (message deliveries, timers, capture-window
// expiries) are executed in virtual-time order against a single logical
// clock, so experiments measure exact message counts and hop-derived
// latencies with zero wall-clock noise and full reproducibility from a
// seed.
//
// The kernel is intentionally single-threaded: handlers run one at a
// time in timestamp order (ties broken by scheduling order), which is
// the standard sequential DES execution model and is what makes message
// counting exact.
//
// The hot path is allocation-free in steady state (TestKernelZeroAllocs):
// event structs are recycled through a freelist. A scheduled event cannot be cancelled;
// every queued event runs.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"time"
)

// Time is virtual time measured as a duration since the start of the
// simulation.
type Time = time.Duration

// event is a scheduled callback. Events are pooled: after running they
// return to the kernel's freelist.
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among equal timestamps
	fn  func()
}

// eventQueue is a min-heap on (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// batchLane is a pre-sorted timeline of events sharing one callback,
// scheduled with O(1) amortized cost per entry: the lane's head is
// merged against the heap top at each step instead of pushing one heap
// event per entry. Entries carry consecutive sequence numbers drawn at
// Batch time, so their order relative to individually scheduled events
// is exactly what per-entry At calls would have produced.
type batchLane struct {
	times []Time
	fn    func(i int)
	next  int    // index of the next unfired entry
	base  uint64 // seq of entry 0; entry i has seq base+i
}

// Kernel is a discrete-event scheduler. The zero value is not usable;
// call New.
type Kernel struct {
	now     Time
	queue   eventQueue
	lanes   []*batchLane
	seq     uint64
	stopped bool
	free    []*event // recycled event structs

	// Executed counts events that have run.
	Executed uint64
}

// New creates an empty kernel. The kernel draws no randomness — every
// stochastic choice in a simulation comes from a *rand.Rand its owner
// seeds — so seed is unused; it stays only because bench/internal/pins
// calls New(1), and goes with the next change to bench/ (ROADMAP item 8).
func New(seed int64) *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

func (k *Kernel) alloc() *event {
	if n := len(k.free); n > 0 {
		e := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return e
	}
	return &event{}
}

// release recycles an event already removed from the queue.
func (k *Kernel) release(e *event) {
	e.fn = nil
	k.free = append(k.free, e)
}

// Schedule runs fn after delay of virtual time. A negative delay is an
// error in the caller; it panics to surface the bug immediately.
func (k *Kernel) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	k.At(k.now+delay, fn)
}

// At runs fn at absolute virtual time t (>= Now).
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, k.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	k.seq++
	k.push(t, k.seq, fn)
}

// push queues fn at (t, seq).
func (k *Kernel) push(t Time, seq uint64, fn func()) {
	e := k.alloc()
	e.at, e.seq, e.fn = t, seq, fn
	heap.Push(&k.queue, e)
}

// Forever is the horizon of a recurring task that never ends: what a
// wall-clock pump, which stops by no longer stepping, passes to Every.
const Forever = Time(math.MaxInt64)

// Every runs fn every interval of virtual time, first at Now+interval,
// for as long as the firing time is at or before until — the horizon is
// what lets Run drain a kernel that carries recurring tasks. It is the
// kernel's one recurring primitive. A task keeps the tie-break rank of
// its Every call for life: at equal timestamps recurring tasks fire in
// the order they were installed, whatever their intervals, and against
// one-shot events exactly as if every firing had been scheduled with At
// when Every was called.
func (k *Kernel) Every(interval, until Time, fn func()) {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive interval %v", interval))
	}
	k.seq++
	seq := k.seq
	var arm func()
	fire := func() { fn(); arm() }
	arm = func() {
		if interval <= until-k.now {
			k.push(k.now+interval, seq, fire)
		}
	}
	arm()
}

// Batch schedules len(times) events sharing one callback; entry i fires
// at times[i] with fn(i). times must be non-decreasing and start at or
// after Now (panics otherwise; the slice is copied). Cost is O(1)
// amortized per entry — one lane merged against the heap at each step —
// versus O(log n) heap pushes for per-entry Schedule calls, which is
// what keeps mass fan-in (every node arming its capture-window timer at
// t=0) linear at 100k-node scale.
func (k *Kernel) Batch(times []Time, fn func(i int)) {
	if len(times) == 0 {
		return
	}
	if fn == nil {
		panic("sim: nil batch function")
	}
	prev := k.now
	for _, t := range times {
		if t < prev {
			panic(fmt.Sprintf("sim: batch time %v before %v", t, prev))
		}
		prev = t
	}
	base := k.seq + 1
	k.seq += uint64(len(times))
	lane := &batchLane{
		times: append([]Time(nil), times...),
		fn:    fn,
		base:  base,
	}
	k.lanes = append(k.lanes, lane)
}

// Pending returns the number of events in the queue (heap plus batch
// lanes).
func (k *Kernel) Pending() int {
	n := k.queue.Len()
	for _, l := range k.lanes {
		n += len(l.times) - l.next
	}
	return n
}

// Stop makes Run return after the currently executing event completes.
func (k *Kernel) Stop() { k.stopped = true }

// source identifiers for peekMin.
const (
	srcNone = iota
	srcHeap
	srcLane
)

// peekMin finds the globally earliest pending event across the heap and
// all batch lanes, by (at, seq).
func (k *Kernel) peekMin() (at Time, seq uint64, src int, lane int) {
	src = srcNone
	if k.queue.Len() > 0 {
		at, seq, src = k.queue[0].at, k.queue[0].seq, srcHeap
	}
	for i, l := range k.lanes {
		lt, ls := l.times[l.next], l.base+uint64(l.next)
		if src == srcNone || lt < at || (lt == at && ls < seq) {
			at, seq, src, lane = lt, ls, srcLane, i
		}
	}
	return
}

// NextAt reports the virtual time of the earliest pending event, and
// false when the queue is empty. It lets an external pacer map virtual
// time onto a real clock — trackd's maintenance pump sleeps until the
// next event is due, then calls Step — without exposing the queue
// internals.
func (k *Kernel) NextAt() (Time, bool) {
	at, _, src, _ := k.peekMin()
	return at, src != srcNone
}

// Step executes the single earliest pending event. It reports false if
// the queue was empty.
func (k *Kernel) Step() bool {
	at, _, src, li := k.peekMin()
	switch src {
	case srcNone:
		return false
	case srcHeap:
		e := heap.Pop(&k.queue).(*event)
		k.now = e.at
		fn := e.fn
		// Recycle before running: fn may schedule new events, and reusing
		// this struct immediately keeps the freelist hot.
		k.release(e)
		k.Executed++
		fn()
	default:
		l := k.lanes[li]
		i := l.next
		l.next++
		if l.next == len(l.times) {
			// Lane exhausted: drop it, keeping order and no stale pointer.
			k.lanes = slices.Delete(k.lanes, li, li+1)
		}
		k.now = at
		k.Executed++
		l.fn(i)
	}
	return true
}

// Run executes events until the queue drains or Stop is called. It
// returns the final virtual time.
func (k *Kernel) Run() Time {
	k.stopped = false
	for !k.stopped && k.Step() {
	}
	return k.now
}

// RunUntil executes events with timestamps <= deadline, then advances
// the clock to the deadline (if it is ahead of the last event) and
// returns. Events scheduled beyond the deadline remain queued.
func (k *Kernel) RunUntil(deadline Time) {
	k.stopped = false
	for !k.stopped {
		at, _, src, _ := k.peekMin()
		if src == srcNone || at > deadline {
			break
		}
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
}
