package invariants

import (
	"errors"
	"testing"
	"time"

	"peertrack/internal/transport"
)

func echo(from transport.Addr, req any) (any, error) { return req, nil }

// A Resilient wrapper driven as the sole caller of a Memory transport
// through success, retry-exhaustion against a dead node, breaker
// rejection, and recovery must satisfy every resilience accounting
// identity.
func TestCheckResilienceCleanRun(t *testing.T) {
	mem := transport.NewMemory(1)
	mem.Register("a", echo)
	mem.Register("b", echo)
	var now time.Duration
	r := transport.NewResilient(mem, func() time.Duration { return now }, nil, transport.ResilientConfig{
		MaxAttempts:      3,
		BreakerThreshold: 6,
		BreakerCooldown:  time.Second,
		Seed:             3,
	})

	for i := 0; i < 5; i++ {
		if _, err := r.Call("a", "b", "ping"); err != nil {
			t.Fatal(err)
		}
	}
	mem.Kill("b")
	for i := 0; i < 3; i++ {
		if _, err := r.Call("a", "b", "ping"); !errors.Is(err, transport.ErrUnreachable) {
			t.Fatalf("dead-node call %d: %v", i, err)
		}
	}
	mem.Revive("b")
	now = 2 * time.Second // past the breaker cooldown
	if _, err := r.Call("a", "b", "ping"); err != nil {
		t.Fatalf("post-revive call: %v", err)
	}

	if vs := CheckResilience(r.Resilience(), mem.Stats().Snapshot()); len(vs) != 0 {
		t.Errorf("clean resilient run flagged: %v", vs)
	}
}

// Planted inconsistencies: a retry billed as an extra drop (the exact
// double-counting bug the invariant exists for), a wrapper bypassed by
// another caller, and a non-conserving wrapper snapshot must each be
// flagged.
func TestCheckResilienceDetectsViolations(t *testing.T) {
	res := transport.ResilienceSnapshot{
		Calls: 10, Attempts: 12, Retries: 2, Successes: 8, Failures: 2,
	}
	inner := transport.Snapshot{
		Calls: 12, Messages: 2*12 - 4, Failures: 4, Drops: 4,
	}
	if vs := CheckResilience(res, inner); len(vs) != 0 {
		t.Fatalf("consistent pair flagged: %v", vs)
	}

	// One retried call's failed attempt billed as a drop twice: drops
	// exceed the retry/failure decomposition.
	doubled := inner
	doubled.Drops, doubled.Failures = 5, 5
	doubled.Messages = 2*doubled.Calls - doubled.Drops
	if vs := CheckResilience(res, doubled); !hasInvariant(vs, "resilience-fault-accounting") {
		t.Errorf("double-counted drop not flagged: %v", vs)
	}

	// Traffic reaching the transport around the wrapper breaks the
	// sole-caller attempt identity.
	bypassed := inner
	bypassed.Calls = 15
	bypassed.Messages = 2*15 - 4
	if vs := CheckResilience(res, bypassed); !hasInvariant(vs, "resilience-attempt-accounting") {
		t.Errorf("bypassed wrapper not flagged: %v", vs)
	}

	// A wrapper snapshot with more rejected calls than failed ones fails
	// its own conservation check.
	overRejected := res
	overRejected.Rejected = 3
	if vs := CheckResilience(overRejected, inner); !hasInvariant(vs, "resilience-conservation") {
		t.Errorf("non-conserving wrapper snapshot not flagged: %v", vs)
	}
}
