package gossip

import (
	"fmt"
	"testing"

	"peertrack/internal/chord"
	"peertrack/internal/transport"
)

// Alloc-pinning benchmarks for the per-round view-exchange path. A
// round cannot be allocation-free — each wire message carries a fresh
// entry slice (wireEntriesLocked) — but its allocation count must stay flat in
// the view size, not grow with network size or round count, or gossip
// would dominate GC load at Scale.XL node counts.

// benchCluster wires n served agents with converged views.
func benchCluster(b testing.TB, n int) []*Agent {
	b.Helper()
	mem := transport.NewMemory(1)
	agents := make([]*Agent, n)
	rs := make([]chord.NodeRef, n)
	for i := range rs {
		rs[i] = ref(fmt.Sprintf("peer-%04d", i))
	}
	for i, r := range rs {
		a := New(mem, r, Config{Seed: SeedFor(1, r.Addr)})
		agents[i] = a
		if err := mem.Register(r.Addr, func(from transport.Addr, req any) (any, error) {
			resp, handled, err := a.HandleRPC(from, req)
			if !handled {
				return nil, fmt.Errorf("unhandled %T", req)
			}
			return resp, err
		}); err != nil {
			b.Fatal(err)
		}
	}
	for i, a := range agents {
		a.SeedView([]chord.NodeRef{rs[(i+1)%n], rs[(i+n-1)%n]})
	}
	for r := 0; r < 10; r++ {
		for _, a := range agents {
			a.Round()
		}
	}
	return agents
}

func BenchmarkRound(b *testing.B) {
	agents := benchCluster(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agents[i%len(agents)].Round()
	}
}

func BenchmarkHandleExchange(b *testing.B) {
	agents := benchCluster(b, 16)
	serving, caller := agents[0], agents[1]
	req := exchangeReq{From: caller.self, Entries: caller.View()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, handled, err := serving.HandleRPC(caller.self.Addr, req); !handled || err != nil {
			b.Fatalf("handled=%v err=%v", handled, err)
		}
	}
}

func BenchmarkSamples(b *testing.B) {
	agents := benchCluster(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(agents[0].Samples()) == 0 {
			b.Fatal("no samples")
		}
	}
}

// TestRoundAllocCeiling pins the steady-state allocation budget of a
// full round (exchange out, merge in, sampler feed, one probe) on a
// converged 16-node network. The ceiling has headroom over the measured
// cost; it exists to catch the path regressing to per-entry boxing or
// per-round map rebuilds, not to pin an exact count.
func TestRoundAllocCeiling(t *testing.T) {
	agents := benchCluster(t, 16)
	i := 0
	const ceiling = 64 // measured ~19/op; 3× headroom
	if avg := testing.AllocsPerRun(200, func() {
		agents[i%len(agents)].Round()
		i++
	}); avg > ceiling {
		t.Errorf("gossip round allocates %.1f/op, ceiling %d", avg, ceiling)
	}
}
