package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"peertrack/internal/telemetry"
)

// ErrCircuitOpen reports that a call was rejected without an attempt
// because the destination's circuit breaker is open. It is always
// wrapped under ErrUnreachable so callers' existing failure handling
// (replica fallthrough, gossip suspicion) applies unchanged.
var ErrCircuitOpen = errors.New("transport: circuit open")

// ResilientConfig tunes the retry/backoff/breaker policy.
type ResilientConfig struct {
	// MaxAttempts is the total number of attempts per call, first try
	// included (default DefaultMaxAttempts; 1 disables retries).
	MaxAttempts int
	// CallBudget bounds the whole call — attempts plus backoff waits.
	// Before sleeping, the wrapper gives up if the elapsed time plus the
	// next wait would exceed the budget (default 0: unbounded).
	CallBudget time.Duration
	// BackoffBase is the pre-jitter wait before the second attempt,
	// doubling per retry up to BackoffMax (defaults DefaultBackoffBase,
	// DefaultBackoffMax).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold is the number of consecutive transport-level
	// failures to one destination that opens its breaker (default
	// DefaultBreakerThreshold; negative disables circuit breaking).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects calls before
	// admitting a single half-open probe (default DefaultBreakerCooldown).
	BreakerCooldown time.Duration
	// Seed drives the private jitter source. Same seed, same clock, same
	// call sequence → same backoff schedule.
	Seed int64
}

// The defaults of ResilientConfig's zero fields, which a live node's
// options (peertrack.NodeOptions) start from too.
const (
	DefaultMaxAttempts      = 3
	DefaultBackoffBase      = 50 * time.Millisecond
	DefaultBackoffMax       = time.Second
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 3 * time.Second
)

func (c *ResilientConfig) fill() {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = DefaultBackoffBase
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = DefaultBackoffMax
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = DefaultBreakerThreshold
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = DefaultBreakerCooldown
	}
}

// breaker states. A destination with no breaker entry is closed.
const (
	bkClosed int8 = iota
	bkOpen
	bkHalfOpen
)

type breaker struct {
	state    int8
	probing  bool // half-open: one probe in flight
	fails    int  // consecutive transport failures while closed
	openedAt time.Duration
}

// Resilient wraps a Network with bounded retries, exponential backoff
// with deterministic jitter, and a per-peer circuit breaker with
// half-open probes; an attempt is one inner Call. Time and waiting are
// injected: the sim drives it from the kernel clock with a no-op sleep
// (retries are immediate and fully deterministic), the live stack
// passes the wall clock and time.Sleep.
//
// Only transport-level failures (errors under ErrUnreachable) are
// retried and counted against the breaker; a RemoteError means the peer
// answered and is returned immediately.
type Resilient struct {
	inner Network
	cfg   ResilientConfig
	clock func() time.Duration
	sleep func(time.Duration)

	mu       sync.Mutex
	rng      *rand.Rand
	breakers map[Addr]*breaker
	// tracked mirrors len(breakers), written under mu: while it is zero
	// no destination has a failure on record, and a call that meets no
	// breaker takes no lock.
	tracked atomic.Int32

	// Handles onto the transport.resilient.* counters — the wrapper's
	// only accounting; Resilience() reads them back through reg. A call
	// that meets no fault bumps calls alone.
	reg              *telemetry.Registry
	calls            *telemetry.Counter
	retries          *telemetry.Counter
	rejected         *telemetry.Counter
	failures         *telemetry.Counter
	recoveries       *telemetry.Counter
	breakerOpens     *telemetry.Counter
	breakerReopens   *telemetry.Counter
	breakerCloses    *telemetry.Counter
	halfOpenProbes   *telemetry.Counter
	deadlineExceeded *telemetry.Counter
}

// NewResilient wraps inner. clock supplies the current time for breaker
// cooldowns and the call budget (nil: a frozen zero clock — budget and
// cooldown never elapse on their own). sleep performs backoff waits
// (nil: no waiting, the sim case).
func NewResilient(inner Network, clock func() time.Duration, sleep func(time.Duration), cfg ResilientConfig) *Resilient {
	cfg.fill()
	if clock == nil {
		clock = func() time.Duration { return 0 }
	}
	if sleep == nil {
		sleep = func(time.Duration) {}
	}
	r := &Resilient{
		inner:    inner,
		cfg:      cfg,
		clock:    clock,
		sleep:    sleep,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		breakers: make(map[Addr]*breaker),
	}
	r.SetTelemetry(nil)
	return r
}

// Register implements Network.
func (r *Resilient) Register(addr Addr, h Handler) error { return r.inner.Register(addr, h) }

// Unregister implements Network.
func (r *Resilient) Unregister(addr Addr) { r.inner.Unregister(addr) }

// Stats implements Network: the inner transport's counters, where every
// attempt is accounted individually.
func (r *Resilient) Stats() *Stats { return r.inner.Stats() }

// SetTelemetry re-points the wrapper's counters at reg's
// transport.resilient.* instruments, replacing the private registry the
// constructor made (nil reverts to a fresh private one). Wire before
// traffic starts.
func (r *Resilient) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		reg = telemetry.New(nil)
	}
	r.reg = reg
	r.calls = reg.Counter("transport.resilient.calls")
	r.retries = reg.Counter("transport.resilient.retries")
	r.rejected = reg.Counter("transport.resilient.rejected")
	r.failures = reg.Counter("transport.resilient.failures")
	r.recoveries = reg.Counter("transport.resilient.recoveries")
	r.breakerOpens = reg.Counter("transport.resilient.breaker_opens")
	r.breakerReopens = reg.Counter("transport.resilient.breaker_reopens")
	r.breakerCloses = reg.Counter("transport.resilient.breaker_closes")
	r.halfOpenProbes = reg.Counter("transport.resilient.halfopen_probes")
	r.deadlineExceeded = reg.Counter("transport.resilient.deadline_exceeded")
}

// Call implements Network with the configured retry policy.
func (r *Resilient) Call(from, to Addr, req any) (any, error) {
	r.calls.Inc()
	start := r.clock()
	if !r.admit(to, start) {
		r.rejected.Inc()
		r.failures.Inc()
		return nil, fmt.Errorf("%w: %s (%w)", ErrUnreachable, to, ErrCircuitOpen)
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		resp, err := r.inner.Call(from, to, req)
		if err == nil || !errors.Is(err, ErrUnreachable) {
			// The peer answered: success, or an application-level error
			// that retrying would not change.
			r.noteSuccess(to)
			if attempt > 1 {
				r.recoveries.Inc()
			}
			return resp, err
		}
		now := r.clock() // once per failed attempt: the time it took is the point
		r.noteFailure(to, now)
		lastErr = err
		if attempt >= r.cfg.MaxAttempts {
			break
		}
		if !r.admit(to, now) {
			// The breaker opened under us (concurrent callers); stop
			// hammering the destination mid-call.
			break
		}
		wait := r.backoff(attempt)
		if r.cfg.CallBudget > 0 && now-start+wait > r.cfg.CallBudget {
			r.deadlineExceeded.Inc()
			break
		}
		r.sleep(wait)
		r.retries.Inc()
	}
	r.failures.Inc()
	return nil, lastErr
}

// backoff returns the jittered wait before the next attempt: the base
// doubles per retry up to the cap, then uniform jitter keeps it in
// [d/2, d] so synchronized retry storms decorrelate. The jitter source
// is private and seeded — no process-global randomness.
func (r *Resilient) backoff(attempt int) time.Duration {
	d := r.cfg.BackoffBase << uint(attempt-1)
	if d <= 0 || d > r.cfg.BackoffMax {
		d = r.cfg.BackoffMax
	}
	r.mu.Lock()
	j := r.rng.Int63n(int64(d/2) + 1)
	r.mu.Unlock()
	return d/2 + time.Duration(j)
}

// admit decides whether a call (or retry) may proceed at time now
// against to's breaker, transitioning open→half-open after the
// cooldown. The caller admitted by that transition is the probe;
// concurrent calls are rejected until it resolves.
func (r *Resilient) admit(to Addr, now time.Duration) bool {
	if r.tracked.Load() == 0 {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.breakers[to]
	if b == nil {
		return true
	}
	switch b.state {
	case bkOpen:
		if now-b.openedAt < r.cfg.BreakerCooldown {
			return false
		}
		b.state = bkHalfOpen
		b.probing = true
		r.halfOpenProbes.Inc()
		return true
	case bkHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		r.halfOpenProbes.Inc()
		return true
	}
	return true
}

// noteSuccess closes to's breaker: any answer from the peer proves it
// reachable again.
func (r *Resilient) noteSuccess(to Addr) {
	if r.tracked.Load() == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.breakers[to]
	if b == nil {
		return
	}
	if b.state != bkClosed {
		r.breakerCloses.Inc()
	}
	delete(r.breakers, to)
	r.tracked.Add(-1)
}

// noteFailure records a transport-level failure at time now against
// to's breaker.
func (r *Resilient) noteFailure(to Addr, now time.Duration) {
	if r.cfg.BreakerThreshold < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.breakers[to]
	if b == nil {
		b = &breaker{}
		r.breakers[to] = b
		r.tracked.Add(1)
	}
	switch b.state {
	case bkClosed:
		b.fails++
		if b.fails >= r.cfg.BreakerThreshold {
			b.state = bkOpen
			b.openedAt = now
			r.breakerOpens.Inc()
		}
	case bkHalfOpen:
		// The probe failed: back to open for another cooldown.
		b.state = bkOpen
		b.probing = false
		b.fails = 0
		b.openedAt = now
		r.breakerReopens.Inc()
	case bkOpen:
		// A straggler admitted before the breaker opened; the open state
		// already covers it.
	}
}

// ResilienceSnapshot is a point-in-time copy of the wrapper's counters.
// Calls are wrapper-level round trips; Attempts are inner-transport
// calls, so when the wrapper is a transport's only caller,
// Attempts == inner Stats().Snapshot().Calls exactly — each retry is
// its own inner call with its own fault accounting, never a
// double-counted drop. Attempts and Successes are not counted but
// derived (ResilienceFrom); a call still in flight reads as a success.
type ResilienceSnapshot struct {
	Calls            uint64 // wrapper-level calls
	Attempts         uint64 // inner calls issued (first tries + retries): Calls − Rejected + Retries
	Retries          uint64 // attempts beyond the first, per call
	Rejected         uint64 // calls rejected by an open breaker (zero attempts)
	Successes        uint64 // calls answered by the peer (incl. RemoteError): Calls − Failures
	Failures         uint64 // calls that failed at transport level (incl. Rejected)
	Recoveries       uint64 // successes that needed more than one attempt
	BreakerOpens     uint64 // closed → open transitions
	BreakerReopens   uint64 // half-open probe failures
	BreakerCloses    uint64 // open/half-open → closed transitions
	HalfOpenProbes   uint64 // calls admitted as half-open probes
	DeadlineExceeded uint64 // retry loops cut short by CallBudget
}

// ResilienceFrom builds a snapshot from the transport.resilient.*
// counters, read by name through value, and derives Attempts and
// Successes from them. Calls is read last: a call bumps it before any
// outcome counter, so no outcome read can exceed it.
func ResilienceFrom(value func(name string) uint64) ResilienceSnapshot {
	s := ResilienceSnapshot{
		Retries:          value("transport.resilient.retries"),
		Rejected:         value("transport.resilient.rejected"),
		Failures:         value("transport.resilient.failures"),
		Recoveries:       value("transport.resilient.recoveries"),
		BreakerOpens:     value("transport.resilient.breaker_opens"),
		BreakerReopens:   value("transport.resilient.breaker_reopens"),
		BreakerCloses:    value("transport.resilient.breaker_closes"),
		HalfOpenProbes:   value("transport.resilient.halfopen_probes"),
		DeadlineExceeded: value("transport.resilient.deadline_exceeded"),
	}
	s.Calls = value("transport.resilient.calls")
	s.Attempts = s.Calls - s.Rejected + s.Retries
	s.Successes = s.Calls - s.Failures
	return s
}

// Conserves reports whether the counted fields are consistent with each
// other: no more rejections than failures, no more failures than calls,
// no more recoveries than successes. The decompositions of Attempts and
// Successes hold by construction; CheckResilience tests them against
// the inner transport's own counts.
func (s ResilienceSnapshot) Conserves() bool {
	return s.Rejected <= s.Failures && s.Failures <= s.Calls && s.Recoveries <= s.Successes
}

// Resilience reads the wrapper's counters.
func (r *Resilient) Resilience() ResilienceSnapshot {
	return ResilienceFrom(func(name string) uint64 { return r.reg.Counter(name).Value() })
}
