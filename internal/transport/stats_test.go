package transport

import (
	"reflect"
	"sync"
	"testing"

	"peertrack/internal/telemetry"
)

type statsReq struct{ N int }

func (statsReq) WireSize() int { return 16 }

type statsResp struct{ OK bool }

func (statsResp) WireSize() int { return 8 }

// TestStatsConcurrentMergeEqualsSerial hammers Memory.Call from many
// goroutines and checks the Snapshot (and per-type breakdown) against an
// identical serial run. Run under -race this is the safety gate for the
// sharded counters.
func TestStatsConcurrentMergeEqualsSerial(t *testing.T) {
	const goroutines = 8
	const callsPer = 500
	const dests = 32

	build := func() (*Memory, []Addr) {
		m := NewMemory(1)
		addrs := make([]Addr, dests)
		for i := range addrs {
			addrs[i] = Addr(string(rune('a'+i%26)) + string(rune('0'+i/26)))
			if err := m.Register(addrs[i], func(from Addr, req any) (any, error) {
				return statsResp{OK: true}, nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		// One dead destination exercises the drop path concurrently too.
		m.Kill(addrs[dests-1])
		return m, addrs
	}

	workload := func(m *Memory, addrs []Addr, g int) {
		for i := 0; i < callsPer; i++ {
			to := addrs[(g*callsPer+i)%dests]
			_, _ = m.Call(addrs[0], to, statsReq{N: i})
		}
	}

	serial, addrs := build()
	for g := 0; g < goroutines; g++ {
		workload(serial, addrs, g)
	}

	conc, caddrs := build()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			workload(conc, caddrs, g)
		}(g)
	}
	wg.Wait()

	if got, want := conc.Stats().Snapshot(), serial.Stats().Snapshot(); got != want {
		t.Errorf("concurrent snapshot %+v != serial %+v", got, want)
	}
	if got, want := conc.Stats().ByType(), serial.Stats().ByType(); !reflect.DeepEqual(got, want) {
		t.Errorf("concurrent ByType %v != serial %v", got, want)
	}
}

// TestMemoryCallZeroAllocs pins the success path of Memory.Call to zero
// heap allocations: Stats.record — the per-type counter handle, sharded
// counters — must not regress to formatting, concatenating or boxing per
// call.
func TestMemoryCallZeroAllocs(t *testing.T) {
	m := NewMemory(1)
	addr := Addr("node-0")
	var resp any = statsResp{OK: true} // pre-boxed: the handler itself must not allocate
	if err := m.Register(addr, func(from Addr, req any) (any, error) {
		return resp, nil
	}); err != nil {
		t.Fatal(err)
	}
	var req any = statsReq{N: 7}
	// Warm up: create the type's counter and resolve its handle.
	if _, err := m.Call(addr, addr, req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := m.Call(addr, addr, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Memory.Call success path allocates %.1f objects/op, want 0", allocs)
	}
}

// TestDropPathAccounting checks the unified drop/blocked accounting:
// one request message on the wire, one failure, and the same per-type
// attribution as a successful call.
func TestDropPathAccounting(t *testing.T) {
	m := NewMemory(1)
	from, to := Addr("src"), Addr("dst")
	if err := m.Register(from, func(Addr, any) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	// dst never registered: the call is blocked.
	req := statsReq{N: 1}
	if _, err := m.Call(from, to, req); err != ErrUnreachable {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	snap := m.Stats().Snapshot()
	want := Snapshot{Calls: 1, Messages: 1, Bytes: uint64(DefaultMsgSize + req.WireSize()), Failures: 1, Blocked: 1}
	if snap != want {
		t.Errorf("snapshot = %+v, want %+v", snap, want)
	}
	if got := m.Stats().ByType()["transport.statsReq"]; got != 1 {
		t.Errorf("ByType[transport.statsReq] = %d, want 1", got)
	}
}

// TestSetTelemetryRepointsTypeCounters: the per-type counter handles a
// Stats resolved belong to its registry. After SetTelemetry re-points a
// transport that has already carried traffic, new per-type counts land
// in the new registry and the old one keeps what it had.
func TestSetTelemetryRepointsTypeCounters(t *testing.T) {
	m := NewMemory(1)
	addr := Addr("node-0")
	if err := m.Register(addr, func(Addr, any) (any, error) { return statsResp{OK: true}, nil }); err != nil {
		t.Fatal(err)
	}
	const name = typeCounterPrefix + "transport.statsReq"
	call := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := m.Call(addr, addr, statsReq{N: i}); err != nil {
				t.Fatal(err)
			}
		}
	}
	first, second := telemetry.New(nil), telemetry.New(nil)
	m.SetTelemetry(first)
	call(3)
	m.SetTelemetry(second)
	call(2)
	if got := first.Counter(name).Value(); got != 3 {
		t.Errorf("first registry counts %d calls of the type after re-pointing, want the 3 it had", got)
	}
	if got := second.Counter(name).Value(); got != 2 {
		t.Errorf("second registry counts %d calls of the type, want 2", got)
	}
	if got := m.Stats().ByType()["transport.statsReq"]; got != 2 {
		t.Errorf("ByType reads %d, want the new registry's 2", got)
	}
}

// TestAnswerChargedByItsOwnType: a request type's entry remembers the
// type of its first answer; answers of other types, and none, are still
// charged by their own size.
func TestAnswerChargedByItsOwnType(t *testing.T) {
	m := NewMemory(1)
	answers := []any{listReq{}, statsResp{}, nil, bigReq{N: 7}, listReq{}} // the first has a layout
	i := 0
	if err := m.Register("b", func(Addr, any) (any, error) { i++; return answers[i-1], nil }); err != nil {
		t.Fatal(err)
	}
	for _, want := range []int{0, 8, 0, 7, 0} {
		before := m.Stats().Snapshot().Bytes
		if _, err := m.Call("a", "b", statsReq{}); err != nil {
			t.Fatal(err)
		}
		if got := m.Stats().Snapshot().Bytes - before; got != uint64(2*DefaultMsgSize+16+want) {
			t.Errorf("answer %d: charged %d bytes, want %d", i, got, 2*DefaultMsgSize+16+want)
		}
	}
}
