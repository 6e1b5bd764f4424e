package transport

import (
	"errors"
	"strings"
	"testing"
	"time"

	"peertrack/internal/telemetry"
)

// scriptNet is a Network whose next failN calls fail with ErrUnreachable
// (billed as drops, like in-flight loss); later calls succeed.
type scriptNet struct {
	stats  *Stats
	failN  int
	calls  int
	remote bool // answer with a handler-level error instead of success
}

func newScriptNet(failN int) *scriptNet {
	return &scriptNet{stats: newStats(nil), failN: failN}
}

func (s *scriptNet) Register(Addr, Handler) error { return nil }
func (s *scriptNet) Unregister(Addr)              {}
func (s *scriptNet) Stats() *Stats                { return s.stats }

func (s *scriptNet) Call(from, to Addr, req any) (any, error) {
	s.calls++
	if s.calls <= s.failN {
		s.stats.record(dropped, req, nil, 0)
		return nil, &wrapUnreachable{to}
	}
	if s.remote {
		s.stats.record(answeredErr, req, nil, 0)
		return nil, &RemoteError{Msg: "handler says no"}
	}
	s.stats.record(answered, req, req, 0)
	return req, nil
}

type wrapUnreachable struct{ to Addr }

func (w *wrapUnreachable) Error() string { return "unreachable " + string(w.to) }
func (w *wrapUnreachable) Unwrap() error { return ErrUnreachable }

// breakerState reports to's breaker state: "closed", "open", or
// "half-open".
func breakerState(r *Resilient, to Addr) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b := r.breakers[to]; b != nil {
		switch b.state {
		case bkOpen:
			return "open"
		case bkHalfOpen:
			return "half-open"
		}
	}
	return "closed"
}

// A call that fails transiently is retried and recovers; the wrapper's
// attempt count matches the inner transport's call count exactly, so
// retries are never double-counted.
func TestResilientRetryRecovers(t *testing.T) {
	inner := newScriptNet(2)
	r := NewResilient(inner, nil, nil, ResilientConfig{MaxAttempts: 3, Seed: 7})
	resp, err := r.Call("a", "b", echoReq{Msg: "x"})
	if err != nil {
		t.Fatalf("call failed after retries: %v", err)
	}
	if resp.(echoReq).Msg != "x" {
		t.Fatalf("resp = %v", resp)
	}
	snap := r.Resilience()
	want := ResilienceSnapshot{Calls: 1, Attempts: 3, Retries: 2, Successes: 1, Recoveries: 1}
	if snap != want {
		t.Errorf("snapshot = %+v, want %+v", snap, want)
	}
	if !snap.Conserves() {
		t.Error("snapshot does not conserve")
	}
	if got := inner.stats.Snapshot().Calls; got != snap.Attempts {
		t.Errorf("inner calls %d != attempts %d", got, snap.Attempts)
	}
}

// Retries are bounded; a persistently unreachable destination fails with
// ErrUnreachable after MaxAttempts inner calls.
func TestResilientRetryExhausted(t *testing.T) {
	inner := newScriptNet(100)
	r := NewResilient(inner, nil, nil, ResilientConfig{MaxAttempts: 3, BreakerThreshold: -1, Seed: 7})
	_, err := r.Call("a", "b", echoReq{})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	snap := r.Resilience()
	want := ResilienceSnapshot{Calls: 1, Attempts: 3, Retries: 2, Failures: 1}
	if snap != want {
		t.Errorf("snapshot = %+v, want %+v", snap, want)
	}
	if !snap.Conserves() {
		t.Error("snapshot does not conserve")
	}
}

// An application-level error means the peer answered: no retry, and the
// call counts as answered, not as a transport failure.
func TestResilientRemoteErrorNotRetried(t *testing.T) {
	inner := newScriptNet(0)
	inner.remote = true
	r := NewResilient(inner, nil, nil, ResilientConfig{Seed: 7})
	_, err := r.Call("a", "b", echoReq{})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	snap := r.Resilience()
	if snap.Attempts != 1 || snap.Retries != 0 || snap.Successes != 1 {
		t.Errorf("snapshot = %+v, want 1 attempt, 0 retries, 1 success", snap)
	}
}

// The breaker opens after BreakerThreshold consecutive failures, rejects
// while open, admits a single half-open probe after the cooldown, and
// closes on the probe's success.
func TestResilientBreakerLifecycle(t *testing.T) {
	inner := newScriptNet(4) // 2 calls × 2 attempts fail, then recover
	var now time.Duration
	clock := func() time.Duration { return now }
	r := NewResilient(inner, clock, nil, ResilientConfig{
		MaxAttempts:      2,
		BreakerThreshold: 4,
		BreakerCooldown:  time.Second,
		Seed:             7,
	})
	for i := 0; i < 2; i++ {
		if _, err := r.Call("a", "b", echoReq{}); !errors.Is(err, ErrUnreachable) {
			t.Fatalf("call %d: err = %v", i, err)
		}
	}
	if got := breakerState(r, "b"); got != "open" {
		t.Fatalf("breaker = %s, want open", got)
	}
	// While open: rejected without an attempt.
	if _, err := r.Call("a", "b", echoReq{}); !errors.Is(err, ErrCircuitOpen) || !errors.Is(err, ErrUnreachable) {
		t.Fatalf("open-breaker err = %v, want ErrCircuitOpen under ErrUnreachable", err)
	}
	if got := r.Resilience().Attempts; got != 4 {
		t.Fatalf("attempts = %d, want 4 (rejected call must not reach the wire)", got)
	}
	// After the cooldown: one probe admitted, succeeds, breaker closes.
	now = 2 * time.Second
	if _, err := r.Call("a", "b", echoReq{}); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if got := breakerState(r, "b"); got != "closed" {
		t.Fatalf("breaker = %s, want closed", got)
	}
	snap := r.Resilience()
	if snap.BreakerOpens != 1 || snap.BreakerCloses != 1 || snap.HalfOpenProbes != 1 || snap.Rejected != 1 {
		t.Errorf("breaker counters = %+v, want opens/closes/probes/rejected 1/1/1/1", snap)
	}
	if !snap.Conserves() {
		t.Errorf("snapshot does not conserve: %+v", snap)
	}
	if got := inner.stats.Snapshot().Calls; got != snap.Attempts {
		t.Errorf("inner calls %d != attempts %d", got, snap.Attempts)
	}
}

// A failed half-open probe reopens the breaker for another cooldown.
func TestResilientBreakerReopens(t *testing.T) {
	inner := newScriptNet(100)
	var now time.Duration
	r := NewResilient(inner, func() time.Duration { return now }, nil, ResilientConfig{
		MaxAttempts:      1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Second,
		Seed:             7,
	})
	r.Call("a", "b", echoReq{}) // opens
	now = 1500 * time.Millisecond
	r.Call("a", "b", echoReq{}) // probe fails → reopen
	if got := breakerState(r, "b"); got != "open" {
		t.Fatalf("breaker = %s, want open after failed probe", got)
	}
	// Still within the new cooldown window: rejected.
	now = 2 * time.Second
	if _, err := r.Call("a", "b", echoReq{}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	snap := r.Resilience()
	if snap.BreakerOpens != 1 || snap.BreakerReopens != 1 || snap.HalfOpenProbes != 1 {
		t.Errorf("breaker counters = %+v, want opens/reopens/probes 1/1/1", snap)
	}
}

// Backoff is deterministic for a seed and stays within the documented
// envelope: doubling from BackoffBase, capped at BackoffMax, jittered
// into [d/2, d].
func TestResilientBackoffDeterministic(t *testing.T) {
	record := func(seed int64) []time.Duration {
		inner := newScriptNet(100)
		var waits []time.Duration
		r := NewResilient(inner, nil, func(d time.Duration) { waits = append(waits, d) }, ResilientConfig{
			MaxAttempts:      6,
			BackoffBase:      20 * time.Millisecond,
			BackoffMax:       100 * time.Millisecond,
			BreakerThreshold: -1,
			Seed:             seed,
		})
		r.Call("a", "b", echoReq{})
		return waits
	}
	a, b := record(42), record(42)
	if len(a) != 5 {
		t.Fatalf("waits = %d, want 5", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at wait %d: %v vs %v", i, a[i], b[i])
		}
	}
	for i, w := range a {
		d := 20 * time.Millisecond << uint(i)
		if d > 100*time.Millisecond {
			d = 100 * time.Millisecond
		}
		if w < d/2 || w > d {
			t.Errorf("wait %d = %v outside [%v, %v]", i, w, d/2, d)
		}
	}
	if c := record(43); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Error("different seeds produced identical jitter sequence")
	}
}

// CallBudget cuts the retry loop short once elapsed time plus the next
// backoff would exceed it.
func TestResilientCallBudget(t *testing.T) {
	inner := newScriptNet(100)
	var now time.Duration
	r := NewResilient(inner, func() time.Duration { return now }, func(d time.Duration) { now += d }, ResilientConfig{
		MaxAttempts:      10,
		BackoffBase:      40 * time.Millisecond,
		BackoffMax:       40 * time.Millisecond,
		CallBudget:       100 * time.Millisecond,
		BreakerThreshold: -1,
		Seed:             7,
	})
	if _, err := r.Call("a", "b", echoReq{}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
	snap := r.Resilience()
	if snap.DeadlineExceeded != 1 {
		t.Errorf("deadline_exceeded = %d, want 1", snap.DeadlineExceeded)
	}
	if snap.Attempts >= 10 {
		t.Errorf("attempts = %d, want budget to stop the loop early", snap.Attempts)
	}
	if !snap.Conserves() {
		t.Errorf("snapshot does not conserve: %+v", snap)
	}
}

// Resilient over the in-memory transport: kill/revive drives the breaker
// and retry paths, the inner Memory accounting stays exact and conserved,
// and the wrapper's attempts equal Memory's calls.
func TestResilientOverMemory(t *testing.T) {
	mem := NewMemory(1)
	mem.Register("a", echoHandler)
	mem.Register("b", echoHandler)
	var now time.Duration
	r := NewResilient(mem, func() time.Duration { return now }, nil, ResilientConfig{
		MaxAttempts:      3,
		BreakerThreshold: 6,
		BreakerCooldown:  time.Second,
		Seed:             11,
	})
	if _, err := r.Call("a", "b", echoReq{Msg: "ok"}); err != nil {
		t.Fatal(err)
	}
	mem.Kill("b")
	for i := 0; i < 2; i++ {
		if _, err := r.Call("a", "b", echoReq{}); !errors.Is(err, ErrUnreachable) {
			t.Fatalf("dead dest err = %v", err)
		}
	}
	if got := breakerState(r, "b"); got != "open" {
		t.Fatalf("breaker = %s, want open after 6 failed attempts", got)
	}
	r.Call("a", "b", echoReq{}) // rejected, no wire traffic
	mem.Revive("b")
	now = 2 * time.Second
	if _, err := r.Call("a", "b", echoReq{Msg: "back"}); err != nil {
		t.Fatalf("post-revive call failed: %v", err)
	}
	snap := r.Resilience()
	memSnap := mem.Stats().Snapshot()
	if memSnap.Calls != snap.Attempts {
		t.Errorf("memory calls %d != attempts %d", memSnap.Calls, snap.Attempts)
	}
	if !memSnap.Conserves() || !snap.Conserves() {
		t.Errorf("accounting does not conserve: mem %+v res %+v", memSnap, snap)
	}
	if memSnap.Blocked != 6 {
		t.Errorf("memory blocked = %d, want 6 (2 calls × 3 attempts at a dead node)", memSnap.Blocked)
	}
}

// The wrapper's counters surface on a telemetry registry and in the
// /metrics exposition format.
func TestResilientTelemetry(t *testing.T) {
	inner := newScriptNet(2)
	reg := telemetry.New(nil)
	r := NewResilient(inner, nil, nil, ResilientConfig{MaxAttempts: 3, Seed: 7})
	r.SetTelemetry(reg)
	if _, err := r.Call("a", "b", echoReq{}); err != nil {
		t.Fatal(err)
	}
	get := func(name string) uint64 { return reg.Counter(name).Value() }
	if get("transport.resilient.calls") != 1 || get("transport.resilient.retries") != 2 || get("transport.resilient.recoveries") != 1 {
		t.Errorf("telemetry = calls %d retries %d recoveries %d, want 1/2/1",
			get("transport.resilient.calls"), get("transport.resilient.retries"), get("transport.resilient.recoveries"))
	}
	text := reg.Snapshot().Text()
	if !strings.Contains(text, "counter transport.resilient.retries 2\n") {
		t.Errorf("exposition missing resilient counters:\n%s", text)
	}
	if snap := r.Resilience(); snap.Retries != 2 || snap.Attempts != 3 || snap.Successes != 1 || !snap.Conserves() {
		t.Errorf("Resilience() = %+v does not read the registry's counters", snap)
	}
}
