package transport

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"peertrack/internal/sim"
)

// benchReq is a representative request payload with a wire size, like
// the core message types.
type benchReq struct{ N int }

func (benchReq) WireSize() int { return 32 }

// BenchmarkTransportCall measures the full Memory.Call round trip —
// handler dispatch plus stats accounting — which is the innermost hot
// path of every simulated message in the experiment harness.
func BenchmarkTransportCall(b *testing.B) {
	m := NewMemory(1)
	const dests = 64
	addrs := make([]Addr, dests)
	for i := range addrs {
		addrs[i] = Addr(fmt.Sprintf("node-%d", i))
		if err := m.Register(addrs[i], func(from Addr, req any) (any, error) {
			return benchReq{N: 1}, nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	req := benchReq{N: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Call(addrs[0], addrs[i%dests], req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransportCallResilient is the same call through the Resilient
// wrapper; the difference to BenchmarkTransportCall is the wrapper's
// overhead on a call that meets no breaker. "wall" reads the wall clock,
// as a live node does (the benchmark's transport.resilient_overhead_ns);
// "kernel" reads a simulator kernel's clock, a field, with no sleep, as
// the wrapper would run on the sim path.
func BenchmarkTransportCallResilient(b *testing.B) {
	epoch := time.Now()
	for _, c := range []struct {
		name  string
		clock func() time.Duration
		sleep func(time.Duration)
	}{
		{"wall", func() time.Duration { return time.Since(epoch) }, time.Sleep},
		{"kernel", sim.New(1).Now, nil},
	} {
		b.Run(c.name, func(b *testing.B) {
			m := NewMemory(1)
			addr := Addr("node")
			if err := m.Register(addr, func(from Addr, req any) (any, error) { return benchReq{N: 1}, nil }); err != nil {
				b.Fatal(err)
			}
			r := NewResilient(m, c.clock, c.sleep, ResilientConfig{})
			var req any = benchReq{N: 7}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Call(addr, addr, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransportCallParallel measures Call under goroutine
// contention, the regime the TCP transport and any future concurrent
// driver run in.
func BenchmarkTransportCallParallel(b *testing.B) {
	m := NewMemory(1)
	const dests = 64
	addrs := make([]Addr, dests)
	for i := range addrs {
		addrs[i] = Addr(fmt.Sprintf("node-%d", i))
		if err := m.Register(addrs[i], func(from Addr, req any) (any, error) {
			return benchReq{N: 1}, nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	req := benchReq{N: 7}
	b.ReportAllocs()
	b.SetParallelism(runtime.GOMAXPROCS(0))
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if _, err := m.Call(addrs[0], addrs[i%dests], req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStatsSnapshot measures the merge cost readers pay, which the
// sharded design trades against writer throughput.
func BenchmarkStatsSnapshot(b *testing.B) {
	m := NewMemory(1)
	addr := Addr("a")
	if err := m.Register(addr, func(from Addr, req any) (any, error) { return nil, nil }); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := m.Call(addr, addr, benchReq{N: i}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Stats().Snapshot()
	}
}
