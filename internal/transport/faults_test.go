package transport

import (
	"errors"
	"math"
	"testing"
)

// Satellite: SetDropRate must reject rates outside [0,1] instead of
// silently accepting them.
func TestSetDropRateValidation(t *testing.T) {
	n := NewMemory(1)
	for _, bad := range []float64{-0.01, -1, 1.0001, 2, math.Inf(1), math.Inf(-1), math.NaN()} {
		if err := n.SetDropRate(bad); err == nil {
			t.Errorf("SetDropRate(%v) accepted", bad)
		}
	}
	for _, ok := range []float64{0, 0.5, 1} {
		if err := n.SetDropRate(ok); err != nil {
			t.Errorf("SetDropRate(%v): %v", ok, err)
		}
	}
	// A rejected rate must leave the previous rate in force.
	n.Register("a", echoHandler)
	n.Register("b", echoHandler)
	if err := n.SetDropRate(0); err != nil {
		t.Fatal(err)
	}
	n.SetDropRate(7) // rejected
	for i := 0; i < 50; i++ {
		if _, err := n.Call("a", "b", echoReq{}); err != nil {
			t.Fatalf("call failed after rejected rate: %v", err)
		}
	}
	// Rate 1 drops every call.
	if err := n.SetDropRate(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := n.Call("a", "b", echoReq{}); !errors.Is(err, ErrUnreachable) {
			t.Fatalf("call at rate 1 succeeded")
		}
	}
}

// Satellite: partition + dead-node interaction. Partitions heal, a
// re-registered node becomes reachable again, and Stats bill every
// blocked call.
func TestPartitionDeadNodeInteraction(t *testing.T) {
	n := NewMemory(1)
	for _, a := range []Addr{"a", "b", "c"} {
		if err := n.Register(a, echoHandler); err != nil {
			t.Fatal(err)
		}
	}
	n.Partition("a", 1) // a alone in group 1
	n.Kill("b")

	// a -> b: partitioned AND dead; a -> c: partitioned; c -> b: dead.
	blocked := 0
	for _, pair := range [][2]Addr{{"a", "b"}, {"a", "c"}, {"c", "b"}} {
		if _, err := n.Call(pair[0], pair[1], echoReq{}); !errors.Is(err, ErrUnreachable) {
			t.Fatalf("%s -> %s succeeded through fault", pair[0], pair[1])
		}
		blocked++
	}

	// Healing the partition restores a -> c but not the dead b.
	n.HealPartitions()
	if _, err := n.Call("a", "c", echoReq{}); err != nil {
		t.Fatalf("a -> c after heal: %v", err)
	}
	if _, err := n.Call("a", "b", echoReq{}); !errors.Is(err, ErrUnreachable) {
		t.Fatal("a -> b succeeded while b dead")
	}
	blocked++

	// Re-registering b (a restarted process) clears the dead mark: the
	// node is reachable without an explicit Revive.
	if err := n.Register("b", echoHandler); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Call("a", "b", echoReq{}); err != nil {
		t.Fatalf("a -> b after re-register: %v", err)
	}

	snap := n.Stats().Snapshot()
	if snap.Blocked != uint64(blocked) {
		t.Errorf("Blocked = %d, want %d", snap.Blocked, blocked)
	}
	if snap.Drops != 0 {
		t.Errorf("Drops = %d, want 0 (no loss configured)", snap.Drops)
	}
	if !snap.Conserves() {
		t.Errorf("stats do not conserve: %+v", snap)
	}
}

// Drops and blocked calls are distinguishable in the snapshot and the
// conservation identity holds under a mix of successes, handler errors,
// drops and blocked calls.
func TestSnapshotConservation(t *testing.T) {
	n := NewMemory(7)
	n.Register("a", echoHandler)
	n.Register("b", echoHandler)
	n.Register("bad", func(from Addr, req any) (any, error) {
		return nil, errors.New("boom")
	})

	for i := 0; i < 10; i++ {
		n.Call("a", "b", echoReq{}) // successes
	}
	n.Call("a", "bad", echoReq{}) // handler failure: still a round trip
	n.Call("a", "ghost", echoReq{})
	n.Kill("b")
	n.Call("a", "b", echoReq{})
	n.Revive("b")
	if err := n.SetDropRate(1); err != nil {
		t.Fatal(err)
	}
	n.Call("a", "b", echoReq{})
	n.SetDropRate(0)

	snap := n.Stats().Snapshot()
	if snap.Calls != 14 || snap.Drops != 1 || snap.Blocked != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Failures != 4 { // handler error + drop + 2 blocked
		t.Errorf("Failures = %d, want 4", snap.Failures)
	}
	if !snap.Conserves() {
		t.Errorf("conservation identity broken: %+v", snap)
	}
}
