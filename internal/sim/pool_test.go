package sim

import (
	"testing"
	"time"
)

// TestKernelZeroAllocs pins the schedule/step cycle to zero heap
// allocations in steady state: events must come from the freelist.
func TestKernelZeroAllocs(t *testing.T) {
	k := New(1)
	fn := func() {}
	// Warm up the freelist and the heap slice capacity.
	for i := 0; i < 64; i++ {
		k.Schedule(time.Duration(i), fn)
	}
	k.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		k.Schedule(time.Microsecond, fn)
		k.Step()
	})
	if allocs != 0 {
		t.Errorf("Schedule+Step allocates %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		k.At(k.Now(), fn)
		k.Step()
	}); allocs != 0 {
		t.Errorf("At+Step allocates %.1f objects/op, want 0", allocs)
	}
}

// TestBatchAllocsPerCallNotPerEntry pins what a lane costs: its header
// and its copy of the times, whatever their number, and nothing when an
// entry fires.
func TestBatchAllocsPerCallNotPerEntry(t *testing.T) {
	k := New(1)
	fired := 0
	fn := func(int) { fired++ }
	for _, n := range []int{1, 512} {
		times := make([]Time, n)
		fired = 0
		allocs := testing.AllocsPerRun(100, func() {
			k.Batch(times, fn)
			k.Run()
		})
		if allocs != 2 || fired != 101*n {
			t.Errorf("a Batch of %d entries, drained, allocates %.1f objects and fires %d times, want 2 (lane and times) and %d", n, allocs, fired/101, n)
		}
	}
}

// TestPoolPreservesOrderAndCounts re-checks the kernel's core contract
// (timestamp order, FIFO ties, Executed counting) under heavy reuse so
// the freelist cannot corrupt ordering state.
func TestPoolPreservesOrderAndCounts(t *testing.T) {
	k := New(1)
	var order []int
	const rounds = 200
	for r := 0; r < rounds; r++ {
		r := r
		k.Schedule(time.Duration(rounds-r)*time.Millisecond, func() { order = append(order, rounds-r) })
		k.Run()
	}
	if len(order) != rounds {
		t.Fatalf("executed %d events, want %d", len(order), rounds)
	}
	if k.Executed != rounds {
		t.Fatalf("Executed = %d, want %d", k.Executed, rounds)
	}
}
