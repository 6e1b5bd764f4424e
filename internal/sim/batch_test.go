package sim

import (
	"testing"
	"time"
)

func TestBatchRunsInTimestampOrder(t *testing.T) {
	k := New(1)
	var got []int
	k.Batch([]Time{1 * time.Millisecond, 3 * time.Millisecond, 5 * time.Millisecond}, func(i int) {
		got = append(got, i)
	})
	k.Run()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("batch order = %v, want [0 1 2]", got)
	}
	if k.Now() != 5*time.Millisecond {
		t.Fatalf("final time = %v, want 5ms", k.Now())
	}
}

func TestBatchInterleavesWithHeapEvents(t *testing.T) {
	// Batch entries must fire in global (at, seq) order against events
	// scheduled via At, exactly as per-entry At calls would have.
	k := New(1)
	var got []string
	k.At(2*time.Millisecond, func() { got = append(got, "heap2") })
	k.Batch([]Time{1 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}, func(i int) {
		got = append(got, []string{"lane1", "lane2", "lane4"}[i])
	})
	k.At(3*time.Millisecond, func() { got = append(got, "heap3") })
	k.Run()
	want := []string{"lane1", "heap2", "lane2", "heap3", "lane4"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestBatchTieBreaksBySchedulingOrder(t *testing.T) {
	// Two lanes and a heap event at the same timestamp: FIFO by the
	// order the entries were scheduled, matching per-entry At semantics.
	k := New(1)
	var got []string
	k.Batch([]Time{time.Millisecond}, func(i int) { got = append(got, "laneA") })
	k.At(time.Millisecond, func() { got = append(got, "heap") })
	k.Batch([]Time{time.Millisecond}, func(i int) { got = append(got, "laneB") })
	k.Run()
	want := []string{"laneA", "heap", "laneB"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestBatchPendingAndExecuted(t *testing.T) {
	k := New(1)
	k.Batch([]Time{1, 2, 3}, func(int) {})
	k.At(4, func() {})
	if k.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", k.Pending())
	}
	k.Step()
	k.Step()
	if k.Pending() != 2 {
		t.Fatalf("Pending after 2 steps = %d, want 2", k.Pending())
	}
	k.Run()
	if k.Pending() != 0 || k.Executed != 4 {
		t.Fatalf("Pending=%d Executed=%d, want 0 and 4", k.Pending(), k.Executed)
	}
}

func TestBatchRunUntil(t *testing.T) {
	k := New(1)
	fired := 0
	k.Batch([]Time{1 * time.Millisecond, 2 * time.Millisecond, 9 * time.Millisecond}, func(int) { fired++ })
	k.RunUntil(5 * time.Millisecond)
	if fired != 2 {
		t.Fatalf("fired = %d before deadline, want 2", fired)
	}
	if k.Now() != 5*time.Millisecond {
		t.Fatalf("Now = %v, want 5ms", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", k.Pending())
	}
	k.Run()
	if fired != 3 {
		t.Fatalf("fired = %d after Run, want 3", fired)
	}
}

func TestBatchEmptyAndValidation(t *testing.T) {
	k := New(1)
	k.Batch(nil, func(int) {}) // no-op
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d after empty batch", k.Pending())
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("nil fn", func() { k.Batch([]Time{1}, nil) })
	mustPanic("decreasing times", func() { k.Batch([]Time{2, 1}, func(int) {}) })
	k.At(5, func() {})
	k.Step()
	mustPanic("time before now", func() { k.Batch([]Time{1}, func(int) {}) })
}

func TestBatchCallbackSchedulesEvents(t *testing.T) {
	// A lane callback scheduling heap events must see them interleave
	// correctly with the remaining lane entries.
	k := New(1)
	var got []string
	k.Batch([]Time{1 * time.Millisecond, 5 * time.Millisecond}, func(i int) {
		got = append(got, "lane")
		if i == 0 {
			k.At(3*time.Millisecond, func() { got = append(got, "nested") })
		}
	})
	k.Run()
	want := []string{"lane", "nested", "lane"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestBatchSliceIsCopied(t *testing.T) {
	k := New(1)
	times := []Time{1, 2, 3}
	fired := 0
	k.Batch(times, func(int) { fired++ })
	times[0], times[1], times[2] = 99, 99, 99 // caller mutation must not corrupt the lane
	k.Run()
	if fired != 3 || k.Now() != 3 {
		t.Fatalf("fired=%d now=%v, want 3 and 3ns", fired, k.Now())
	}
}

func TestBatchManyLanesDeterministic(t *testing.T) {
	// Same workload via Batch lanes and via per-entry At must produce
	// identical execution order.
	run := func(batch bool) []int {
		k := New(7)
		var got []int
		for lane := 0; lane < 4; lane++ {
			lane := lane
			times := make([]Time, 50)
			for i := range times {
				times[i] = Time(i) * time.Millisecond
			}
			if batch {
				k.Batch(times, func(i int) { got = append(got, lane*1000+i) })
			} else {
				for i, at := range times {
					i := i
					k.At(at, func() { got = append(got, lane*1000+i) })
				}
			}
		}
		k.Run()
		return got
	}
	a, b := run(true), run(false)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order diverges at %d: batch=%d at=%d", i, a[i], b[i])
		}
	}
}

// TestExhaustedLaneIsReleased checks that a drained lane leaves no
// pointer behind in the lane slice's spare capacity: a network keeps
// its kernel after Run, and a lane holds its times and a callback that
// may reach the whole workload.
func TestExhaustedLaneIsReleased(t *testing.T) {
	k := New(1)
	k.Batch([]Time{1, 2}, func(int) {})
	k.Batch([]Time{3}, func(int) {})
	k.Run()
	for i, l := range k.lanes[:cap(k.lanes)] {
		if l != nil {
			t.Errorf("lane slot %d still holds a drained lane", i)
		}
	}
}
