package transport

import (
	"fmt"
	"math/rand"
	"sync"

	"peertrack/internal/telemetry"
)

// Memory is an instrumented in-process Network. Calls dispatch
// synchronously to the destination handler in the caller's goroutine,
// which keeps discrete-event experiments deterministic, and every call
// outcome is recorded once through Stats.
//
// Fault injection: per-network drop probability, per-node "dead" marks,
// and symmetric partitions. A dropped or blocked call fails with
// ErrUnreachable after charging the request message (the request was
// sent and lost; no response came back), mirroring how a real network
// bills a timeout.
type Memory struct {
	mu       sync.RWMutex // guards handlers, dead, groupOf, dropRate
	handlers map[Addr]Handler
	dead     map[Addr]bool
	groupOf  map[Addr]int // partition group; 0 = default group
	dropRate float64

	rngMu sync.Mutex // fault-injection randomness, drawn only when dropRate > 0
	rng   *rand.Rand

	stats *Stats
}

// NewMemory creates an empty in-process network. seed drives fault
// injection randomness only.
func NewMemory(seed int64) *Memory {
	return &Memory{
		handlers: make(map[Addr]Handler),
		dead:     make(map[Addr]bool),
		groupOf:  make(map[Addr]int),
		rng:      rand.New(rand.NewSource(seed)),
		stats:    newStats(nil),
	}
}

// Register implements Network.
func (m *Memory) Register(addr Addr, h Handler) error {
	if h == nil {
		return fmt.Errorf("transport: nil handler for %s", addr)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[addr] = h
	delete(m.dead, addr)
	return nil
}

// Unregister implements Network.
func (m *Memory) Unregister(addr Addr) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.handlers, addr)
}

// SetDropRate makes each call fail with the given probability. Rates
// outside [0, 1] (including NaN) are rejected: a silent clamp would let
// an experiment config typo (e.g. a percentage where a fraction is
// expected) skew every fault-injection result downstream.
func (m *Memory) SetDropRate(p float64) error {
	if !(p >= 0 && p <= 1) { // negated to catch NaN
		return fmt.Errorf("transport: drop rate %v outside [0,1]", p)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dropRate = p
	return nil
}

// Kill marks addr unreachable without unregistering it (a crashed node
// whose state still exists). Revive undoes it.
func (m *Memory) Kill(addr Addr) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dead[addr] = true
}

// Revive clears a Kill mark.
func (m *Memory) Revive(addr Addr) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.dead, addr)
}

// Partition assigns addr to a partition group. Nodes can only reach
// nodes in the same group. All nodes start in group 0; HealPartitions
// restores full connectivity.
func (m *Memory) Partition(addr Addr, group int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.groupOf[addr] = group
}

// HealPartitions returns every node to group 0.
func (m *Memory) HealPartitions() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.groupOf = make(map[Addr]int)
}

// Stats implements Network.
func (m *Memory) Stats() *Stats { return m.stats }

// SetTelemetry re-points the accounting at reg's transport.*
// instruments (per-call counters, message-type breakdown, latency/byte
// histograms), replacing the private registry the constructor made; nil
// reverts to a fresh private one. Wire it before traffic starts: the
// handles are read without a lock on the hot path, and counts already
// recorded stay in the registry they were recorded into.
func (m *Memory) SetTelemetry(reg *telemetry.Registry) {
	*m.stats = *newStats(reg)
}

// Call implements Network.
func (m *Memory) Call(from, to Addr, req any) (any, error) {
	start := m.stats.begin()
	m.mu.RLock()
	h, ok := m.handlers[to]
	unreachable := !ok || m.dead[to] || m.dead[from] || m.groupOf[from] != m.groupOf[to]
	dropRate := m.dropRate
	m.mu.RUnlock()
	if unreachable {
		// The request was emitted into a partition or at a dead node: no
		// response returns. Charge one message, bill it as blocked. A
		// structurally unreachable call never consumes fault-injection
		// randomness, so partition schedules do not perturb the drop
		// sequence of the surviving traffic.
		m.stats.record(blocked, req, nil, start)
		return nil, ErrUnreachable
	}
	if dropRate > 0 {
		m.rngMu.Lock()
		lost := m.rng.Float64() < dropRate
		m.rngMu.Unlock()
		if lost {
			// The request was emitted but lost in flight: charge one
			// message, record the failure.
			m.stats.record(dropped, req, nil, start)
			return nil, ErrUnreachable
		}
	}

	resp, err := h(from, req)
	if err != nil {
		m.stats.record(answeredErr, req, resp, start)
		return nil, &RemoteError{Msg: err.Error()}
	}
	m.stats.record(answered, req, resp, start)
	return resp, nil
}
