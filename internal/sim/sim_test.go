package sim

import (
	"fmt"
	"testing"
	"time"
)

func TestEventsRunInTimestampOrder(t *testing.T) {
	k := New(1)
	var order []int
	k.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	k.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	k.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if k.Now() != 30*time.Millisecond {
		t.Errorf("final time = %v", k.Now())
	}
}

func TestTiesBreakFIFO(t *testing.T) {
	k := New(1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		k.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	k := New(1)
	var fired []Time
	k.Schedule(5*time.Millisecond, func() {
		fired = append(fired, k.Now())
		k.Schedule(5*time.Millisecond, func() {
			fired = append(fired, k.Now())
		})
	})
	k.Run()
	if len(fired) != 2 || fired[0] != 5*time.Millisecond || fired[1] != 10*time.Millisecond {
		t.Fatalf("fired = %v", fired)
	}
}

func TestStopHaltsRun(t *testing.T) {
	k := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		k.Schedule(Time(i)*time.Millisecond, func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	k.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	// Run again resumes.
	k.Run()
	if count != 10 {
		t.Fatalf("count after resume = %d, want 10", count)
	}
}

func TestRunUntil(t *testing.T) {
	k := New(1)
	var fired []int
	for i := 1; i <= 5; i++ {
		i := i
		k.Schedule(Time(i)*time.Second, func() { fired = append(fired, i) })
	}
	k.RunUntil(3 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired = %v", fired)
	}
	if k.Now() != 3*time.Second {
		t.Errorf("now = %v, want 3s", k.Now())
	}
	k.RunUntil(10 * time.Second)
	if len(fired) != 5 {
		t.Fatalf("after second RunUntil fired = %v", fired)
	}
	if k.Now() != 10*time.Second {
		t.Errorf("now advanced to %v, want 10s", k.Now())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	k := New(1)
	k.RunUntil(7 * time.Second)
	if k.Now() != 7*time.Second {
		t.Errorf("idle clock = %v", k.Now())
	}
}

func TestSchedulePanics(t *testing.T) {
	k := New(1)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("negative delay", func() { k.Schedule(-1, func() {}) })
	mustPanic("nil fn", func() { k.Schedule(0, nil) })
	k.Schedule(time.Second, func() {})
	k.Run()
	mustPanic("At in past", func() { k.At(0, func() {}) })
}

func TestExecutedCount(t *testing.T) {
	k := New(1)
	for i := 0; i < 50; i++ {
		k.Schedule(Time(i), func() {})
	}
	k.Run()
	if k.Executed != 50 {
		t.Errorf("Executed = %d", k.Executed)
	}
}

func TestPending(t *testing.T) {
	k := New(1)
	k.Schedule(time.Second, func() {})
	k.Schedule(2*time.Second, func() {})
	if k.Pending() != 2 {
		t.Errorf("Pending = %d", k.Pending())
	}
	k.Run()
	if k.Pending() != 0 {
		t.Errorf("Pending after run = %d", k.Pending())
	}
}

func TestNextAt(t *testing.T) {
	k := New(1)
	if _, ok := k.NextAt(); ok {
		t.Error("NextAt on empty kernel reported an event")
	}
	k.Schedule(2*time.Second, func() {})
	k.Schedule(time.Second, func() {})
	k.Batch([]Time{1500 * time.Millisecond}, func(int) {})
	if at, ok := k.NextAt(); !ok || at != time.Second {
		t.Errorf("NextAt = %v, %v; want 1s, true", at, ok)
	}
	k.Step()
	if at, ok := k.NextAt(); !ok || at != 1500*time.Millisecond {
		t.Errorf("NextAt after step = %v, %v; want 1.5s (lane event), true", at, ok)
	}
	k.Run()
	if _, ok := k.NextAt(); ok {
		t.Error("NextAt after drain reported an event")
	}
}

// Every fires at interval multiples up to and including the horizon, so
// Run drains; and a task keeps the tie-break rank of its Every call, so
// at a shared instant the order is install order whatever the cadences
// — the same order as pre-scheduling every firing with At.
func TestEveryHorizonAndInstallOrder(t *testing.T) {
	k := New(1)
	var got []string
	note := func(s string) func() {
		return func() { got = append(got, fmt.Sprintf("%s@%d", s, k.Now()/time.Second)) }
	}
	k.At(2*time.Second, note("before"))
	k.Every(time.Second, 4*time.Second, note("fast"))
	k.Every(2*time.Second, 4*time.Second, note("slow"))
	k.At(2*time.Second, note("after"))
	if end := k.Run(); end != 4*time.Second {
		t.Fatalf("Run ended at %v, want the 4s horizon", end)
	}
	want := "[fast@1 before@2 fast@2 slow@2 after@2 fast@3 fast@4 slow@4]"
	if fmt.Sprint(got) != want {
		t.Errorf("firings = %v\nwant      %s", got, want)
	}
	if k.Pending() != 0 {
		t.Errorf("%d events still pending past the horizon", k.Pending())
	}
}
