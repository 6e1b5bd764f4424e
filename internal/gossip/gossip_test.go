package gossip

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"peertrack/internal/ids"
	"peertrack/internal/overlay"
	"peertrack/internal/transport"
)

func ref(name string) overlay.NodeRef {
	return overlay.NodeRef{ID: ids.HashString(name), Addr: transport.Addr(name)}
}

// refs returns n distinct references named peer-0000…peer-(n-1).
func refs(n int) []overlay.NodeRef {
	out := make([]overlay.NodeRef, n)
	for i := range out {
		out[i] = ref(fmt.Sprintf("peer-%04d", i))
	}
	return out
}

// testAgent builds a standalone agent on net (or an unserved one when
// net is nil) with small deterministic defaults.
func testAgent(net transport.Network, name string, cfg Config) *Agent {
	if cfg.Seed == 0 {
		cfg.Seed = SeedFor(1, transport.Addr(name))
	}
	return New(net, ref(name), cfg)
}

// cluster wires n agents onto one Memory transport, each serving its
// RPCs directly, views seeded with ring neighbours (i±1).
func cluster(t *testing.T, n int, cfg Config) (*transport.Memory, []*Agent) {
	t.Helper()
	mem := transport.NewMemory(1)
	agents := make([]*Agent, n)
	rs := refs(n)
	for i, r := range rs {
		a := New(mem, r, Config{
			ViewSize:           cfg.ViewSize,
			SampleSlots:        cfg.SampleSlots,
			MaxAge:             cfg.MaxAge,
			SuspicionThreshold: cfg.SuspicionThreshold,
			Seed:               SeedFor(1, r.Addr),
		})
		agents[i] = a
		serve(t, mem, a)
	}
	for i, a := range agents {
		a.SeedView([]overlay.NodeRef{rs[(i+1)%n], rs[(i+n-1)%n]})
	}
	return mem, agents
}

// serve registers a's RPC handler at its address on mem.
func serve(t *testing.T, mem *transport.Memory, a *Agent) {
	t.Helper()
	if err := mem.Register(a.self.Addr, func(from transport.Addr, req any) (any, error) {
		resp, handled, err := a.HandleRPC(from, req)
		if !handled {
			return nil, fmt.Errorf("unhandled %T", req)
		}
		return resp, err
	}); err != nil {
		t.Fatal(err)
	}
}

func rounds(agents []*Agent, k int) {
	for r := 0; r < k; r++ {
		for _, a := range agents {
			a.Round()
		}
	}
}

// TestMergeProperties is the seeded property test over the view merge:
// for many random entry multisets, the view never exceeds its bound,
// never contains a self or over-age entry, and keeps the youngest age
// per address.
func TestMergeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pool := refs(64)
	for trial := 0; trial < 200; trial++ {
		cfg := Config{ViewSize: 1 + rng.Intn(12), MaxAge: uint32(1 + rng.Intn(20))}
		a := testAgent(nil, "peer-0000", cfg)
		n := rng.Intn(40)
		entries := make([]Entry, n)
		minAge := map[transport.Addr]uint32{}
		for i := range entries {
			r := pool[rng.Intn(len(pool))]
			age := uint32(rng.Intn(int(cfg.MaxAge) + 4)) // some over-age
			entries[i] = Entry{Ref: r, Age: age}
			if r.Addr == a.self.Addr || age > cfg.MaxAge {
				continue
			}
			if prev, ok := minAge[r.Addr]; !ok || age < prev {
				minAge[r.Addr] = age
			}
		}
		a.mu.Lock()
		a.mergeLocked(entries)
		view := append([]Entry(nil), a.view...)
		a.mu.Unlock()

		if len(view) > cfg.ViewSize {
			t.Fatalf("trial %d: view %d exceeds bound %d", trial, len(view), cfg.ViewSize)
		}
		for _, e := range view {
			if e.Ref.Addr == a.self.Addr {
				t.Fatalf("trial %d: self entry in view", trial)
			}
			if e.Age > cfg.MaxAge {
				t.Fatalf("trial %d: over-age entry %d > %d", trial, e.Age, cfg.MaxAge)
			}
			if want, ok := minAge[e.Ref.Addr]; !ok {
				t.Fatalf("trial %d: view entry %s never offered admissibly", trial, e.Ref.Addr)
			} else if e.Age != want {
				t.Fatalf("trial %d: kept age %d for %s, youngest offered was %d", trial, e.Age, e.Ref.Addr, want)
			}
		}
	}
}

// TestMergeOrderInsensitive pins the merge's permutation invariance:
// merging any permutation of the same entry multiset — in one batch or
// many — yields byte-identical views.
func TestMergeOrderInsensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := refs(48)
	for trial := 0; trial < 100; trial++ {
		cfg := Config{ViewSize: 1 + rng.Intn(10), MaxAge: 8, Seed: 99}
		entries := make([]Entry, rng.Intn(30))
		for i := range entries {
			entries[i] = Entry{Ref: pool[rng.Intn(len(pool))], Age: uint32(rng.Intn(10))}
		}
		base := testAgent(nil, "peer-0000", cfg)
		base.mu.Lock()
		base.mergeLocked(entries)
		want := append([]Entry(nil), base.view...)
		base.mu.Unlock()

		perm := testAgent(nil, "peer-0000", cfg)
		shuffled := append([]Entry(nil), entries...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		// Split the permutation into random batches: merge must also be
		// insensitive to batching as long as ages keep duplicates
		// resolvable to the same winner.
		perm.mu.Lock()
		for len(shuffled) > 0 {
			k := 1 + rng.Intn(len(shuffled))
			perm.mergeLocked(shuffled[:k])
			shuffled = shuffled[k:]
		}
		got := append([]Entry(nil), perm.view...)
		perm.mu.Unlock()

		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: merge order-sensitive:\n one-shot: %v\n batched:  %v", trial, want, got)
		}
	}
}

// TestExchangeConverges runs a small cluster and checks full membership
// knowledge spreads: every agent's sample set reaches every live peer.
func TestExchangeConverges(t *testing.T) {
	const n = 12
	_, agents := cluster(t, n, Config{ViewSize: n, SampleSlots: 16})
	rounds(agents, 10)
	for i, a := range agents {
		s := a.Samples()
		if len(s) != n-1 {
			t.Errorf("agent %d knows %d peers, want %d", i, len(s), n-1)
		}
		for _, r := range s {
			if r.Addr == a.self.Addr {
				t.Errorf("agent %d samples itself", i)
			}
		}
	}
}

// TestSingleContactJoin is the join the Brahms exemplar leaves as a TODO
// ("how a member would join an existing network by knowing just one other
// node"): a fresh agent whose view is seeded with a single contact joins
// a converged 32-agent network. Its first round is a push-pull with that
// contact, so it fills its own view from the reply and the contact learns
// of it. Within joinRounds rounds of the 33 agents the joiner's view is
// full and every agent can reach it along the edges of what agents know
// (Samples: view plus sampler, the set successor repair draws from).
// Seeded agents on transport.Memory: deterministic.
//
// Views alone do not carry that far, which the test logs and does not
// assert: a view keeps its ViewSize youngest entries and breaks age ties
// by ID, and in a network this small every entry sits at age 0, so views
// settle on the lowest IDs — a joiner whose ID sorts above them enters no
// view and lives in sampler slots only (ROADMAP item 4(d)).
func TestSingleContactJoin(t *testing.T) {
	const (
		n          = 32
		joinRounds = 4
	)
	viewRefs := func(a *Agent) []overlay.NodeRef {
		var out []overlay.NodeRef
		for _, e := range a.View() {
			out = append(out, e.Ref)
		}
		return out
	}
	for k := 0; k < 6; k++ {
		mem, agents := cluster(t, n, Config{})
		rounds(agents, 20)
		joiner := testAgent(mem, fmt.Sprintf("joiner-%d", k), Config{})
		serve(t, mem, joiner)
		joiner.SeedView([]overlay.NodeRef{agents[k].self})
		all := append(agents[:n:n], joiner)
		rounds(all, joinRounds)

		if got, want := len(joiner.View()), joiner.cfg.ViewSize; got != want {
			t.Errorf("joiner %d: after %d rounds its view holds %d of %d entries", k, joinRounds, got, want)
		}
		if got := reaching(all, joiner, (*Agent).Samples); got != n {
			t.Errorf("joiner %d: after %d rounds %d of %d agents can reach it through what they know", k, joinRounds, got, n)
		}
		t.Logf("joiner %d (id %s): %d of %d agents reach it along view edges alone", k, joiner.self.ID.Short(), reaching(all, joiner, viewRefs), n)
	}
}

// reaching counts the agents from which target can be reached by
// following edges — walked backwards from the target: whoever has it
// among their edges reaches it in one step, whoever has one of those in
// two, and so on.
func reaching(all []*Agent, target *Agent, edges func(*Agent) []overlay.NodeRef) int {
	holders := map[transport.Addr][]transport.Addr{} // address -> agents with an edge to it
	for _, a := range all {
		for _, r := range edges(a) {
			holders[r.Addr] = append(holders[r.Addr], a.self.Addr)
		}
	}
	reach := map[transport.Addr]bool{target.self.Addr: true}
	for frontier := []transport.Addr{target.self.Addr}; len(frontier) > 0; frontier = frontier[1:] {
		for _, h := range holders[frontier[0]] {
			if !reach[h] {
				reach[h] = true
				frontier = append(frontier, h)
			}
		}
	}
	return len(reach) - 1
}

// TestFailureDetector pins the suspicion state machine end to end:
// threshold crossing declares dead exactly once (with the OnDead
// callback), quarantine blocks hearsay readmission, and inbound contact
// resurrects.
func TestFailureDetector(t *testing.T) {
	mem, agents := cluster(t, 4, Config{SuspicionThreshold: 2, ViewSize: 8})
	rounds(agents, 6)

	victim := agents[3]
	var deaths []overlay.NodeRef
	agents[0].SetOnDead(func(r overlay.NodeRef) { deaths = append(deaths, r) })
	mem.Kill(victim.self.Addr)

	if agents[0].Suspect(victim.self) {
		t.Fatal("first suspicion already crossed threshold 2")
	}
	if !agents[0].Suspect(victim.self) {
		t.Fatal("second suspicion did not cross threshold")
	}
	if !agents[0].IsDead(victim.self.Addr) {
		t.Fatal("victim not marked dead")
	}
	if len(deaths) != 1 || !deaths[0].Equal(victim.self) {
		t.Fatalf("OnDead fired %v, want exactly the victim once", deaths)
	}
	if agents[0].Suspect(victim.self) {
		t.Fatal("re-suspecting a dead address re-declared death")
	}

	// Quarantine: hearsay from a live peer must not readmit the victim.
	a := agents[0]
	a.mu.Lock()
	a.mergeLocked([]Entry{{Ref: victim.self, Age: 0}})
	inView := false
	for _, e := range a.view {
		if e.Ref.Addr == victim.self.Addr {
			inView = true
		}
	}
	a.mu.Unlock()
	if inView {
		t.Fatal("quarantined address readmitted by hearsay")
	}
	for _, s := range a.Samples() {
		if s.Addr == victim.self.Addr {
			t.Fatal("dead address still in samples")
		}
	}

	// Resurrection: direct inbound contact from the revived victim.
	mem.Revive(victim.self.Addr)
	if _, handled, err := a.HandleRPC(victim.self.Addr, exchangeReq{From: victim.self}); !handled || err != nil {
		t.Fatalf("exchange from revived victim: handled=%v err=%v", handled, err)
	}
	if a.IsDead(victim.self.Addr) {
		t.Fatal("inbound contact did not resurrect")
	}
}

// TestRoundSuspectsDeadPartner checks the organic path: killing a node
// and running rounds eventually gets it declared dead by its peers.
func TestRoundSuspectsDeadPartner(t *testing.T) {
	mem, agents := cluster(t, 6, Config{ViewSize: 8, SampleSlots: 8, SuspicionThreshold: 2})
	rounds(agents, 8)
	victim := agents[5].self
	mem.Kill(victim.Addr)
	agents[5].Stop()
	rounds(agents[:5], 40)
	for i, a := range agents[:5] {
		if !a.IsDead(victim.Addr) {
			t.Errorf("agent %d never declared the crashed node dead", i)
		}
	}
}

// TestStoppedAgent pins Stop semantics: rounds no-op and inbound
// exchanges are refused with ErrStopped.
func TestStoppedAgent(t *testing.T) {
	_, agents := cluster(t, 3, Config{})
	a := agents[0]
	a.Stop()
	before := a.View()
	a.Round()
	if !reflect.DeepEqual(before, a.View()) {
		t.Error("Round mutated a stopped agent's view")
	}
	if _, handled, err := a.HandleRPC(agents[1].self.Addr, exchangeReq{From: agents[1].self}); !handled || err != ErrStopped {
		t.Errorf("exchange against stopped agent: handled=%v err=%v, want ErrStopped", handled, err)
	}
}

// TestDeterministicRounds pins the package's determinism contract: two
// identically seeded clusters evolve byte-identical state.
func TestDeterministicRounds(t *testing.T) {
	run := func() [][]Entry {
		_, agents := cluster(t, 8, Config{ViewSize: 6, SampleSlots: 16})
		rounds(agents, 12)
		views := make([][]Entry, len(agents))
		for i, a := range agents {
			views[i] = a.View()
		}
		return views
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Error("same seeds, different views")
	}
}
