// Package gossip implements a Brahms-style membership and failure-
// detection layer under the PeerTrack overlay.
//
// Each node runs an Agent holding a bounded partial view of the
// network. Once per round the agent performs a push/pull view exchange
// with one partner drawn from its view: it pushes its own view plus a
// fresh self-entry (age 0) and pulls the partner's view back, merging
// both sides age-youngest-first. Entries age by one per round and are
// dropped past MaxAge, so departed nodes wash out of views even without
// explicit detection. On top of the view rides a min-wise sampler
// (SampleSlots independent hash minima over every address the agent
// hears about) providing what successor-list repair needs: uniform
// peer samples that are independent of ring position.
//
// Failure detection is suspicion-based: every failed exchange or probe
// against an address increments its suspicion counter, every successful
// contact (outbound or inbound) resets it, and crossing
// SuspicionThreshold declares the address dead — it is purged from the
// view and sampler, quarantined against hearsay reintroduction, and
// reported through the OnDead callback so upper layers (successor-list
// repair in chord, gateway-cache eviction in core) can react. An
// inbound message from a dead address resurrects it.
//
// The package obeys the repo's determinism rules: no wall clock (rounds
// are driven externally, by the sim kernel or a test loop), no global
// rand (each agent owns a seeded *rand.Rand), and no writes through
// message payloads after they are handed to the transport.
package gossip

import (
	"errors"
	"math/rand"
	"sort"
	"sync"

	"peertrack/internal/overlay"
	"peertrack/internal/transport"
)

// Config tunes the membership protocol.
type Config struct {
	// ViewSize bounds the partial view (Brahms' ℓ). Default 16.
	ViewSize int
	// SampleSlots is the number of independent min-wise sampler slots,
	// each one uniform peer sample. Default 32.
	SampleSlots int
	// MaxAge drops view entries not refreshed for this many rounds,
	// bounding how long hearsay about a departed node circulates.
	// Default 16.
	MaxAge uint32
	// SuspicionThreshold is the number of consecutive failed contacts
	// after which an address is declared dead. Default 2.
	SuspicionThreshold int
	// Seed drives the agent's private RNG (partner selection). Derive
	// per-node seeds with SeedFor so agents on one network stay
	// decorrelated but deterministic.
	Seed int64
}

func (c *Config) fill() {
	if c.ViewSize <= 0 {
		c.ViewSize = 16
	}
	if c.SampleSlots <= 0 {
		c.SampleSlots = 32
	}
	if c.MaxAge == 0 {
		c.MaxAge = 16
	}
	if c.SuspicionThreshold <= 0 {
		c.SuspicionThreshold = 2
	}
}

// ErrStopped is returned to callers exchanging with a stopped agent.
var ErrStopped = errors.New("gossip: agent stopped")

// Agent is one node's membership view, sampler, and failure detector.
type Agent struct {
	self overlay.NodeRef
	net  transport.Network
	cfg  Config

	mu      sync.Mutex
	rng     *rand.Rand
	view    []Entry // sorted youngest-first (Age, ID, Addr)
	smp     sampler
	susp    []suspicion      // sorted by Addr
	dead    []transport.Addr // sorted; quarantined addresses
	probeAt int              // round-robin sampler-slot probe cursor
	stopped bool
	onDead  func(overlay.NodeRef)

	tel agentTelemetry
}

// suspicion tracks consecutive failed contacts against one address.
type suspicion struct {
	addr  transport.Addr
	count int
}

// New creates an agent for self on net. The agent serves no traffic by
// itself: core.NewPeer composes HandleRPC into the peer's handler, and
// the maintenance table drives Round.
func New(net transport.Network, self overlay.NodeRef, cfg Config) *Agent {
	cfg.fill()
	a := &Agent{
		self: self,
		net:  net,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
	a.smp.init(cfg.SampleSlots, uint64(cfg.Seed))
	a.smp.feed(self) // every node has observed itself
	return a
}

// SeedFor derives a per-node RNG seed from a base seed and the node's
// address, so all agents on one network are decorrelated yet fully
// determined by the base seed.
func SeedFor(base int64, addr transport.Addr) int64 {
	return int64(mix64(addrHash(addr) ^ uint64(base)))
}

// SetOnDead installs the dead-verdict callback. It runs outside the
// agent lock, once per address transitioning alive→dead. Install before
// traffic starts.
func (a *Agent) SetOnDead(fn func(overlay.NodeRef)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.onDead = fn
}

// SeedView merges bootstrap references (typically ring neighbours) into
// the view as fresh entries and feeds them to the sampler.
func (a *Agent) SeedView(refs []overlay.NodeRef) {
	a.mu.Lock()
	defer a.mu.Unlock()
	entries := make([]Entry, 0, len(refs))
	for _, r := range refs {
		entries = append(entries, Entry{Ref: r})
	}
	a.mergeLocked(entries)
	for _, r := range refs {
		a.feedLocked(r)
	}
}

// Stop marks the agent stopped: Round becomes a no-op and inbound
// exchanges are refused. Used when the owning node crashes or leaves.
func (a *Agent) Stop() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stopped = true
}

// Round performs one gossip round: age the view, push/pull with one
// partner, then liveness-probe one sampler slot (round-robin), feeding
// the failure detector on both paths.
func (a *Agent) Round() {
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return
	}
	a.ageLocked()
	if len(a.view) == 0 {
		a.mu.Unlock()
		return
	}
	partner := a.view[a.rng.Intn(len(a.view))].Ref
	req := exchangeReq{From: a.self, Entries: a.wireEntriesLocked()}
	a.mu.Unlock()

	a.tel.rounds.Inc()
	var deadRefs []overlay.NodeRef
	resp, err := a.net.Call(a.self.Addr, partner.Addr, req)
	a.mu.Lock()
	if err != nil {
		a.tel.exchangeFails.Inc()
		if a.suspectLocked(partner.Addr) {
			deadRefs = append(deadRefs, partner)
		}
	} else {
		a.tel.exchanges.Inc()
		a.aliveLocked(partner.Addr)
		r := resp.(exchangeResp)
		a.mergeLocked(r.Entries)
		a.feedLocked(partner)
		for _, e := range r.Entries {
			if a.admissibleLocked(e) {
				a.feedLocked(e.Ref)
			}
		}
	}
	probe, ok := a.nextProbeLocked()
	a.mu.Unlock()

	if ok {
		a.tel.probes.Inc()
		if _, perr := a.net.Call(a.self.Addr, probe.Addr, probeReq{}); perr != nil {
			a.tel.probeFails.Inc()
			a.mu.Lock()
			if a.suspectLocked(probe.Addr) {
				deadRefs = append(deadRefs, probe)
			}
			a.mu.Unlock()
		} else {
			a.mu.Lock()
			a.aliveLocked(probe.Addr)
			a.mu.Unlock()
		}
	}

	a.mu.Lock()
	fn := a.onDead
	a.mu.Unlock()
	if fn != nil {
		for _, d := range deadRefs {
			fn(d)
		}
	}
}

// HandleRPC serves the exchange and probe messages; compose it into the
// node's application handler ahead of other layers. Returns
// handled=false for foreign messages.
func (a *Agent) HandleRPC(from transport.Addr, req any) (any, bool, error) {
	switch r := req.(type) {
	case exchangeReq:
		a.mu.Lock()
		if a.stopped {
			a.mu.Unlock()
			return nil, true, ErrStopped
		}
		// Pull half answers with the pre-merge view, then the push half
		// is merged — both sides end up with the union.
		resp := exchangeResp{Entries: a.wireEntriesLocked()}
		a.aliveLocked(r.From.Addr)
		a.mergeLocked(r.Entries)
		a.feedLocked(r.From)
		for _, e := range r.Entries {
			if a.admissibleLocked(e) {
				a.feedLocked(e.Ref)
			}
		}
		a.mu.Unlock()
		a.tel.exchangesServed.Inc()
		return resp, true, nil
	case probeReq:
		a.mu.Lock()
		stopped := a.stopped
		a.mu.Unlock()
		if stopped {
			return nil, true, ErrStopped
		}
		return probeResp{Self: a.self}, true, nil
	}
	return nil, false, nil
}

// View returns a copy of the current view, youngest-first.
func (a *Agent) View() []Entry {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Entry(nil), a.view...)
}

// Samples returns the agent's current peer samples — the union of view
// entries and sampler slot elements, deduplicated and sorted by address
// — for overlay repair (chord.RepairFromSamples).
func (a *Agent) Samples() []overlay.NodeRef {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]overlay.NodeRef, 0, len(a.view)+len(a.smp.slots))
	for _, e := range a.view {
		out = append(out, e.Ref)
	}
	for _, s := range a.smp.slots {
		if s.full && s.ref.Addr != a.self.Addr {
			out = append(out, s.ref)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	dedup := out[:0]
	for i, r := range out {
		if i > 0 && r.Addr == out[i-1].Addr {
			continue
		}
		dedup = append(dedup, r)
	}
	return dedup
}

// Suspect reports one failed contact observed by an external layer —
// e.g. the overlay's own RPC failure against a successor — feeding the
// same suspicion state machine as the agent's exchanges and probes. It
// returns true when the report crossed the threshold and ref was
// declared dead; the OnDead callback fires before returning.
func (a *Agent) Suspect(ref overlay.NodeRef) bool {
	a.mu.Lock()
	if a.stopped || ref.IsZero() || ref.Addr == a.self.Addr {
		a.mu.Unlock()
		return false
	}
	died := a.suspectLocked(ref.Addr)
	fn := a.onDead
	a.mu.Unlock()
	if died && fn != nil {
		fn(ref)
	}
	return died
}

// IsDead reports whether the failure detector has declared addr dead
// (and it has not been resurrected by inbound contact since).
func (a *Agent) IsDead(addr transport.Addr) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.isDeadLocked(addr)
}

// ageLocked ages every entry one round and drops entries past MaxAge.
func (a *Agent) ageLocked() {
	kept := a.view[:0]
	for i := range a.view {
		a.view[i].Age++
		if a.view[i].Age <= a.cfg.MaxAge {
			kept = append(kept, a.view[i])
		}
	}
	a.view = kept
}

// wireEntriesLocked builds a fresh outbound entry slice: a self-entry
// at age 0 followed by a copy of the view. Fresh allocation per message
// is deliberate — the transport owns payloads once handed over, so no
// scratch buffer may back them (a buffer shared by every agent fails
// TestSingleContactJoin).
func (a *Agent) wireEntriesLocked() []Entry {
	out := make([]Entry, 0, len(a.view)+1)
	out = append(out, Entry{Ref: a.self})
	out = append(out, a.view...)
	return out
}

// admissibleLocked reports whether an incoming entry may enter the view
// or the sampler: not self, not zero, not over-age, not quarantined.
func (a *Agent) admissibleLocked(e Entry) bool {
	return !e.Ref.IsZero() && e.Ref.Addr != a.self.Addr &&
		e.Age <= a.cfg.MaxAge && !a.isDeadLocked(e.Ref.Addr)
}

// mergeLocked merges incoming entries into the view. The merge is
// slice-only and order-insensitive: concatenate, sort by (Addr, Age)
// and keep the youngest entry per address, then impose the total order
// (Age, ID, Addr) and truncate to ViewSize. Any permutation of the same
// entry multiset yields a byte-identical view.
func (a *Agent) mergeLocked(incoming []Entry) {
	merged := make([]Entry, 0, len(a.view)+len(incoming))
	merged = append(merged, a.view...)
	for _, e := range incoming {
		if a.admissibleLocked(e) {
			merged = append(merged, e)
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Ref.Addr != merged[j].Ref.Addr {
			return merged[i].Ref.Addr < merged[j].Ref.Addr
		}
		return merged[i].Age < merged[j].Age
	})
	out := merged[:0]
	for _, e := range merged {
		if len(out) > 0 && e.Ref.Addr == out[len(out)-1].Ref.Addr {
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Age != out[j].Age {
			return out[i].Age < out[j].Age
		}
		if c := out[i].Ref.ID.Cmp(out[j].Ref.ID); c != 0 {
			return c < 0
		}
		return out[i].Ref.Addr < out[j].Ref.Addr
	})
	if len(out) > a.cfg.ViewSize {
		out = out[:a.cfg.ViewSize]
	}
	a.view = out
}

// feedLocked offers one observed address to the min-wise sampler.
func (a *Agent) feedLocked(r overlay.NodeRef) {
	a.smp.feed(r)
}

// nextProbeLocked picks the next sampler slot to liveness-check,
// cycling round-robin so every retained minimum is eventually
// validated — this is what lets the estimator shed crashed nodes whose
// hashes would otherwise pin the slot minima forever.
func (a *Agent) nextProbeLocked() (overlay.NodeRef, bool) {
	k := len(a.smp.slots)
	for i := 0; i < k; i++ {
		s := &a.smp.slots[a.probeAt]
		a.probeAt = (a.probeAt + 1) % k
		if s.full && s.ref.Addr != a.self.Addr {
			return s.ref, true
		}
	}
	return overlay.NodeRef{}, false
}

// suspectLocked records one failed contact; on crossing the threshold
// the address is declared dead (purged from view and sampler,
// quarantined) and true is returned so the caller can fire OnDead.
func (a *Agent) suspectLocked(addr transport.Addr) bool {
	i := sort.Search(len(a.susp), func(i int) bool { return a.susp[i].addr >= addr })
	if i == len(a.susp) || a.susp[i].addr != addr {
		a.susp = append(a.susp, suspicion{})
		copy(a.susp[i+1:], a.susp[i:])
		a.susp[i] = suspicion{addr: addr}
	}
	a.susp[i].count++
	if a.susp[i].count < a.cfg.SuspicionThreshold {
		return false
	}
	a.susp = append(a.susp[:i], a.susp[i+1:]...)
	if a.isDeadLocked(addr) {
		return false
	}
	a.killLocked(addr)
	return true
}

// killLocked purges addr from the view and sampler and quarantines it
// against reintroduction by hearsay.
func (a *Agent) killLocked(addr transport.Addr) {
	kept := a.view[:0]
	for _, e := range a.view {
		if e.Ref.Addr != addr {
			kept = append(kept, e)
		}
	}
	a.view = kept
	a.smp.invalidate(addr)
	i := sort.Search(len(a.dead), func(i int) bool { return a.dead[i] >= addr })
	if i == len(a.dead) || a.dead[i] != addr {
		a.dead = append(a.dead, "")
		copy(a.dead[i+1:], a.dead[i:])
		a.dead[i] = addr
	}
	a.tel.deaths.Inc()
}

// aliveLocked records a successful contact: suspicion resets and a
// quarantined address is resurrected.
func (a *Agent) aliveLocked(addr transport.Addr) {
	if i := sort.Search(len(a.susp), func(i int) bool { return a.susp[i].addr >= addr }); i < len(a.susp) && a.susp[i].addr == addr {
		a.susp = append(a.susp[:i], a.susp[i+1:]...)
	}
	if i := sort.Search(len(a.dead), func(i int) bool { return a.dead[i] >= addr }); i < len(a.dead) && a.dead[i] == addr {
		a.dead = append(a.dead[:i], a.dead[i+1:]...)
		a.tel.resurrections.Inc()
	}
}

func (a *Agent) isDeadLocked(addr transport.Addr) bool {
	i := sort.Search(len(a.dead), func(i int) bool { return a.dead[i] >= addr })
	return i < len(a.dead) && a.dead[i] == addr
}
