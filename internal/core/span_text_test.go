package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"peertrack/internal/ids"
	"peertrack/internal/moods"
)

// The rendered text of a span is what /debug/trace and `-fig telemetry`
// show, so every step call site in peer.go and query.go is pinned here
// byte for byte: the healthy ones a figure run reaches are also in
// experiments' spans.txt golden, the failure- and delegation-only ones
// are reached nowhere else. A verb or argument swapped at any call site
// fails one of these.

// newestSpans renders the n most recent spans, oldest first.
func newestSpans(nw *Network, n int) string {
	spans := nw.Telemetry.Tracer().Recent(n)
	var b strings.Builder
	for i := len(spans) - 1; i >= 0; i-- {
		b.WriteString(spans[i].Detail())
		b.WriteByte('\n')
	}
	return b.String()
}

func wantSpans(t *testing.T, nw *Network, n int, want string) {
	t.Helper()
	if got := newestSpans(nw, n); got != want {
		t.Errorf("spans drifted\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// othersThan returns the first n peers that are none of the given ones.
func othersThan(nw *Network, n int, not ...*Peer) []*Peer {
	var out []*Peer
next:
	for _, p := range nw.Peers() {
		for _, x := range not {
			if p == x {
				continue next
			}
		}
		if out = append(out, p); len(out) == n {
			break
		}
	}
	return out
}

func observeAndFlush(t *testing.T, p *Peer, obj moods.ObjectID, at time.Duration) {
	t.Helper()
	if err := p.Observe(moods.Observation{Object: obj, At: at}); err != nil {
		t.Fatal(err)
	}
	if err := p.FlushWindow(); err != nil {
		t.Fatal(err)
	}
}

func TestSpanTextGroupedHealthy(t *testing.T) {
	nw := buildNet(t, 8, Config{Mode: GroupIndexing})
	obj := moods.ObjectID("pallet")
	gw, _ := gatewayOf(nw, obj)
	ps := othersThan(nw, 3, gw)
	a, b, asker := ps[0], ps[1], ps[2]

	observeAndFlush(t, a, obj, 3*time.Second)
	observeAndFlush(t, b, obj, 90*time.Second)
	if _, err := asker.Locate(obj, 4*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := asker.FullTrace(obj); err != nil {
		t.Fatal(err)
	}
	wantSpans(t, nw, 4, `index key=11100 t=[0s→0s] hops=0 steps=2 ok
  0s org-0001: gateway: 1 events from org-0000, 1 unknown
  0s org-0001: refresh: 0 of 1 unknown resolved from ascent
index key=11100 t=[0s→0s] hops=2 steps=3 ok
  0s org-0001: gateway: 1 events from org-0002, 0 unknown
  0s org-0000: M2: 1 objects moved on to org-0002
  0s org-0002: M3: 1 inbound links
locate key=pallet t=[0s→0s] hops=3 steps=3 ok
  0s org-0001: gateway 11100: hit, head at org-0002
  0s org-0002: IOP walk: visit arrived 1m30s
  0s org-0000: IOP walk: visit arrived 3s
trace key=pallet t=[0s→0s] hops=3 steps=3 ok
  0s org-0001: gateway 11100: hit, head at org-0002
  0s org-0002: IOP walk: visit arrived 1m30s
  0s org-0000: IOP walk: visit arrived 3s
`)
}

func TestSpanTextGroupedGatewayCrash(t *testing.T) {
	nw := buildNet(t, 8, Config{Mode: GroupIndexing, ReplicationFactor: 2})
	obj := moods.ObjectID("pallet")
	gw, _ := gatewayOf(nw, obj)
	ps := othersThan(nw, 3, gw)
	a, b, asker := ps[0], ps[1], ps[2]
	observeAndFlush(t, a, obj, 3*time.Second)

	// A late report while the head's node is down: the stitch is deferred.
	nw.Transport.Kill(a.Addr())
	if err := b.Observe(moods.Observation{Object: obj, At: time.Second}); err != nil {
		t.Fatal(err)
	}
	b.FlushWindow()
	wantSpans(t, nw, 1, `index key=11100 t=[0s→0s] hops=0 steps=2 ok
  0s org-0001: gateway: 1 events from org-0002, 0 unknown
  0s org-0001: deferred 1 late stitches
`)
	nw.Transport.Revive(a.Addr())

	// The gateway dies with no ring repair: the read falls through to
	// its replica.
	nw.Transport.Kill(gw.Addr())
	if _, err := asker.Locate(obj, time.Hour); err != nil {
		t.Fatal(err)
	}
	wantSpans(t, nw, 1, `locate key=pallet t=[0s→0s] hops=2 steps=2 ok
  0s org-0001: gateway 11100 unreachable: transport: destination unreachable
  0s org-0007: replica fallthrough: hit for 11100
`)
}

func TestSpanTextIndividual(t *testing.T) {
	nw := buildNet(t, 8, Config{Mode: IndividualIndexing, ReplicationFactor: 2})
	obj := moods.ObjectID("pallet")
	res, err := nw.Peers()[0].Node().Lookup(obj.Hash())
	if err != nil {
		t.Fatal(err)
	}
	gw, _ := nw.PeerByName(moods.NodeName(res.Node.Addr))
	ps := othersThan(nw, 2, gw)
	a, asker := ps[0], ps[1]
	if err := a.Observe(moods.Observation{Object: obj, At: 3 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if _, err := asker.Locate(obj, time.Hour); err != nil {
		t.Fatal(err)
	}
	nw.Transport.Kill(gw.Addr())
	if _, err := asker.Locate(obj, time.Hour); err != nil {
		t.Fatal(err)
	}
	wantSpans(t, nw, 2, `locate key=pallet t=[0s→0s] hops=3 steps=1 ok
  0s org-0001: gateway lookup: 2 overlay hops
locate key=pallet t=[0s→0s] hops=3 steps=2 ok
  0s org-0001: gateway lookup: 2 overlay hops
  0s org-0002: replica fallthrough: hit for pallet
`)
}

func TestSpanTextDelegation(t *testing.T) {
	nw := buildNet(t, 8, Config{Mode: GroupIndexing, DelegationThreshold: 4, DelegationAlpha: 0.5})
	// Eight objects of one prefix group, reported in one window, overflow
	// their bucket; the gateway of the group's 1-child is down.
	lp := nw.PM.Lp()
	var objs []moods.ObjectID
	var pfx ids.Prefix
	for i := 0; len(objs) < 8; i++ {
		obj := moods.ObjectID(fmt.Sprintf("crate-%d", i))
		if p := ids.PrefixOf(obj.Hash(), lp); len(objs) == 0 || p.Equal(pfx) {
			pfx = p
			objs = append(objs, obj)
		}
	}
	gw, _ := gatewayOf(nw, objs[0])
	child1, err := gw.resolveGateway(pfx.Child(1))
	if err != nil {
		t.Fatal(err)
	}
	reporter := othersThan(nw, 1, gw)[0]
	if child1 == gw.Addr() || child1 == reporter.Addr() {
		t.Fatalf("child gateway %s coincides with the gateway or the reporter; pick other objects", child1)
	}
	nw.Transport.Kill(child1)
	for i, obj := range objs {
		if err := reporter.Observe(moods.Observation{Object: obj, At: time.Duration(i+1) * time.Second}); err != nil {
			t.Fatal(err)
		}
	}
	reporter.FlushWindow()
	wantSpans(t, nw, 2, `delegate key=10001 t=[0s→0s] hops=1 steps=2 ok
  0s org-0005: delegated 1 records to child 100010
  0s org-0002: delegate 3 records to 100011 failed: transport: destination unreachable
index key=10001 t=[0s→0s] hops=0 steps=2 ok
  0s org-0001: gateway: 8 events from org-0000, 8 unknown
  0s org-0001: refresh: 0 of 8 unknown resolved from ascent
`)

	// A delegated record is found one level down the triangle.
	var moved moods.ObjectID
	for _, obj := range objs {
		if _, ok := gw.gw.lookup(pfx.Key(), obj.Hash()); !ok {
			moved = obj
			break
		}
	}
	if _, err := reporter.Locate(moved, time.Hour); err != nil {
		t.Fatal(err)
	}
	wantSpans(t, nw, 1, `locate key=crate-109 t=[0s→0s] hops=2 steps=2 ok
  0s org-0001: gateway 10001: miss (delegated=true)
  0s org-0005: gateway 100010: hit, head at org-0000
`)
}
