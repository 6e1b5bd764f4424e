package core

import (
	"testing"

	"peertrack/internal/gossip"
	"peertrack/internal/moods"
)

// TestDeadGatewayEviction pins the core wiring of gossip dead verdicts:
// when a peer's failure detector condemns an address, every cached
// gateway resolution pointing at it is evicted (so the next flush
// re-resolves through the repaired ring, re-delegating the group) and
// unrelated entries survive.
func TestDeadGatewayEviction(t *testing.T) {
	nw, err := BuildNetwork(NetworkConfig{Nodes: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	nw.EnableGossip(gossip.Config{})
	for i := 0; i < 6; i++ {
		for _, p := range nw.Peers() {
			p.gossip.Round()
		}
	}

	p := nw.Peers()[0]
	victim := nw.Peers()[3].Node().Self()
	other := nw.Peers()[5].Node().Self()
	keyDead1 := mustKey("0101")
	keyDead2 := mustKey("0110")
	keyLive := mustKey("1001")
	dead, live := p.names.ref(moods.NodeName(victim.Addr)), p.names.ref(moods.NodeName(other.Addr))
	p.gwCache.put(keyDead1, dead)
	p.gwCache.put(keyDead2, dead)
	p.gwCache.put(keyLive, live)

	// Two failed-contact reports cross the default suspicion threshold;
	// the dead verdict must fire the eviction callback synchronously.
	g := p.gossip
	if g.Suspect(victim) {
		t.Fatal("first suspicion already crossed the threshold")
	}
	if !g.Suspect(victim) {
		t.Fatal("second suspicion did not cross the threshold")
	}

	if _, ok := p.gwCache.get(keyDead1); ok {
		t.Error("cached resolution to dead gateway survived (key 0101)")
	}
	if _, ok := p.gwCache.get(keyDead2); ok {
		t.Error("cached resolution to dead gateway survived (key 0110)")
	}
	if node, ok := p.gwCache.get(keyLive); !ok || node != live {
		t.Error("unrelated cached resolution was evicted")
	}

	evictions := uint64(0)
	for _, c := range nw.Telemetry.Snapshot().Counters {
		if c.Name == "core.gwcache.dead_evictions" {
			evictions = c.Value
		}
	}
	if evictions != 2 {
		t.Errorf("core.gwcache.dead_evictions = %d, want 2", evictions)
	}
}

// TestGrowAttachesGossip pins the lifecycle wiring: peers added after
// EnableGossip get agents automatically, and leavers' agents stop.
func TestGrowAttachesGossip(t *testing.T) {
	nw, err := BuildNetwork(NetworkConfig{Nodes: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	nw.EnableGossip(gossip.Config{SampleSlots: 16})
	if _, _, err := nw.Grow(8); err != nil {
		t.Fatal(err)
	}
	for _, p := range nw.Peers() {
		if p.gossip == nil {
			t.Fatalf("peer %s has no gossip agent after Grow", p.Addr())
		}
	}

	assertRingOrder(t, nw, "after grow")
	leaver := nw.Peers()[len(nw.Peers())-1]
	if _, _, err := nw.Shrink(1); err != nil {
		t.Fatal(err)
	}
	assertRingOrder(t, nw, "after shrink")
	if _, ok := nw.PeerByName(leaver.Name()); ok {
		t.Errorf("Shrink(1) left %s, the last peer in ring order, in the network", leaver.Addr())
	}
	// A stopped agent refuses rounds; its view must stay frozen.
	before := leaver.gossip.View()
	leaver.gossip.Round()
	if len(before) != len(leaver.gossip.View()) {
		t.Error("leaver's agent still gossiping after Shrink")
	}
}
