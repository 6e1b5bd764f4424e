package sim

import (
	"testing"
	"time"
)

// BenchmarkKernelSchedule measures the schedule-then-run cycle of the
// event kernel: each iteration schedules one event and steps it, the
// steady-state pattern of a message-passing simulation.
func BenchmarkKernelSchedule(b *testing.B) {
	k := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(time.Microsecond, fn)
		k.Step()
	}
}

// BenchmarkKernelScheduleDepth measures scheduling against a deep
// queue, where heap sift cost and allocation behaviour both matter.
func BenchmarkKernelScheduleDepth(b *testing.B) {
	k := New(1)
	fn := func() {}
	const depth = 1024
	for i := 0; i < depth; i++ {
		k.Schedule(time.Duration(i)*time.Millisecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(time.Hour, fn)
		k.Step()
	}
}

// BenchmarkBatchFanIn measures mass timer fan-in at XL scale — every
// node arming a timer at once — via the batch lane, against the heap
// push path below. One op = scheduling and draining 100k entries.
func BenchmarkBatchFanIn(b *testing.B) {
	const n = 100_000
	times := make([]Time, n)
	for i := range times {
		times[i] = Time(i) * time.Microsecond
	}
	fn := func(int) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := New(1)
		k.Batch(times, fn)
		k.Run()
	}
}

// BenchmarkHeapFanIn is the per-entry At baseline for BenchmarkBatchFanIn.
func BenchmarkHeapFanIn(b *testing.B) {
	const n = 100_000
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := New(1)
		for j := 0; j < n; j++ {
			k.At(Time(j)*time.Microsecond, fn)
		}
		k.Run()
	}
}
