package gossip

import (
	"peertrack/internal/chord"
	"peertrack/internal/transport"
)

// sampler is a min-wise sampler: k slots, each with an independent
// seeded 64-bit hash; a slot retains the observed address minimizing
// its hash. Because the minimizer of a uniform hash over any observed
// multiset is a uniform sample of the distinct elements, the slots are
// k near-independent uniform node samples — regardless of how skewed
// the observation stream is (view entries arrive in proportion to
// gossip mixing, not uniformly).
//
// Minima only ever decrease, so a crashed node would pin its slots
// forever; invalidate clears every slot held by a dead address and the
// slot refills from subsequent observations, so samples track a
// shrinking membership.
type sampler struct {
	slots []slot
	seeds []uint64
}

type slot struct {
	ref  chord.NodeRef
	hash uint64
	full bool
}

// init sizes the sampler with k slots whose hash seeds are derived from
// base via splitmix64, the standard way to fan one seed into many
// independent streams.
func (s *sampler) init(k int, base uint64) {
	s.slots = make([]slot, k)
	s.seeds = make([]uint64, k)
	x := base
	for i := range s.seeds {
		x += 0x9e3779b97f4a7c15
		s.seeds[i] = mix64(x)
	}
}

// feed offers one observed address to every slot.
func (s *sampler) feed(r chord.NodeRef) {
	if r.IsZero() {
		return
	}
	base := addrHash(r.Addr)
	for i := range s.slots {
		h := mix64(base ^ s.seeds[i])
		if !s.slots[i].full || h < s.slots[i].hash {
			s.slots[i] = slot{ref: r, hash: h, full: true}
		}
	}
}

// invalidate clears every slot retaining addr.
func (s *sampler) invalidate(addr transport.Addr) {
	for i := range s.slots {
		if s.slots[i].full && s.slots[i].ref.Addr == addr {
			s.slots[i] = slot{}
		}
	}
}

// addrHash is FNV-1a over the address bytes, allocation-free.
func addrHash(addr transport.Addr) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection that
// spreads the FNV output uniformly over 64 bits, which makes each
// slot's minimizer a uniform sample.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
