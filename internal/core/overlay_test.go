package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"peertrack/internal/moods"
)

// The traceability core must behave identically over Chord and
// Kademlia — that is the paper's "generic approach on DHT overlays"
// claim, verified here end to end.

func buildNetOn(t testing.TB, kind OverlayKind, nodes int, peerCfg Config) *Network {
	t.Helper()
	nw, err := BuildNetwork(NetworkConfig{
		Nodes:   nodes,
		Seed:    1,
		Peer:    peerCfg,
		Overlay: kind,
	})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestKademliaGroupIndexingMatchesOracle(t *testing.T) {
	nw := buildNetOn(t, KademliaOverlay, 24, Config{Mode: GroupIndexing})
	r := rand.New(rand.NewSource(42))
	objs := make([]moods.ObjectID, 40)
	for i := range objs {
		objs[i] = moods.ObjectID(fmt.Sprintf("kad-%d", i))
		hops := 2 + r.Intn(4)
		trace := make([]int, hops)
		for j := range trace {
			trace[j] = r.Intn(24)
			if j > 0 && trace[j] == trace[j-1] {
				trace[j] = (trace[j] + 1) % 24
			}
		}
		moveObject(t, nw, objs[i], trace, time.Duration(1+r.Intn(5))*time.Second, time.Minute)
	}
	nw.StartWindows(10 * time.Minute)
	nw.Run()

	for _, obj := range objs {
		res, err := nw.Peers()[0].FullTrace(obj)
		if err != nil {
			t.Fatalf("trace %s over kademlia: %v", obj, err)
		}
		assertPathsEqual(t, res.Path, nw.Oracle.FullTrace(obj), string(obj))
	}
}

func TestKademliaIndividualIndexing(t *testing.T) {
	nw := buildNetOn(t, KademliaOverlay, 16, Config{Mode: IndividualIndexing})
	obj := moods.ObjectID("kad-ind")
	moveObject(t, nw, obj, []int{2, 9, 14}, time.Second, time.Minute)
	nw.Run()
	res, err := nw.Peers()[5].FullTrace(obj)
	if err != nil {
		t.Fatal(err)
	}
	assertPathsEqual(t, res.Path, nw.Oracle.FullTrace(obj), "kad individual")
}

func TestKademliaLocateMatchesOracle(t *testing.T) {
	nw := buildNetOn(t, KademliaOverlay, 16, Config{Mode: GroupIndexing})
	r := rand.New(rand.NewSource(9))
	objs := make([]moods.ObjectID, 20)
	for i := range objs {
		objs[i] = moods.ObjectID(fmt.Sprintf("kl-%d", i))
		trace := []int{r.Intn(16), r.Intn(16)}
		if trace[1] == trace[0] {
			trace[1] = (trace[1] + 1) % 16
		}
		moveObject(t, nw, objs[i], trace, time.Second, time.Minute)
	}
	nw.StartWindows(5 * time.Minute)
	nw.Run()
	for q := 0; q < 100; q++ {
		obj := objs[r.Intn(len(objs))]
		at := time.Duration(r.Intn(180)) * time.Second
		res, err := nw.Peers()[r.Intn(16)].Locate(obj, at)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := nw.Oracle.Locate(obj, at)
		if res.Node != want {
			t.Fatalf("kad L(%s, %v) = %q, oracle %q", obj, at, res.Node, want)
		}
	}
}

func TestKademliaGrowReconcile(t *testing.T) {
	nw := buildNetOn(t, KademliaOverlay, 16, Config{Mode: GroupIndexing})
	objs := make([]moods.ObjectID, 20)
	for i := range objs {
		objs[i] = moods.ObjectID(fmt.Sprintf("kg-%d", i))
		moveObject(t, nw, objs[i], []int{i % 16, (i + 4) % 16}, time.Second, time.Minute)
	}
	nw.StartWindows(3 * time.Minute)
	nw.Run()
	if _, _, err := nw.Grow(32); err != nil {
		t.Fatal(err)
	}
	for _, obj := range objs {
		res, err := nw.Peers()[40].FullTrace(obj)
		if err != nil {
			t.Fatalf("trace %s after kademlia grow: %v", obj, err)
		}
		assertPathsEqual(t, res.Path, nw.Oracle.FullTrace(obj), "kad post-grow")
	}
}

func TestKademliaReplicationSurvivesCrash(t *testing.T) {
	nw := buildNetOn(t, KademliaOverlay, 16, Config{Mode: GroupIndexing, ReplicationFactor: 3})
	obj := moods.ObjectID("kad-crash")
	nw.ScheduleObservation(moods.Observation{Object: obj, Node: nw.Peers()[3].Name(), At: time.Second})
	nw.StartWindows(2 * time.Second)
	nw.Run()

	// Find and kill the gateway.
	gwKey := nw.PM.GroupOf(obj.Hash()).GatewayID()
	res, err := nw.Peers()[0].Node().Lookup(gwKey)
	if err != nil {
		t.Fatal(err)
	}
	if res.Node.Addr == nw.Peers()[3].Addr() {
		t.Skip("gateway co-located with observer for this seed")
	}
	nw.Transport.Kill(res.Node.Addr)
	for _, p := range nw.Peers() {
		p.InvalidateGatewayCache()
	}

	var asker *Peer
	for _, p := range nw.Peers() {
		if p.Addr() != res.Node.Addr {
			asker = p
			break
		}
	}
	loc, err := asker.Locate(obj, time.Hour)
	if err != nil {
		t.Fatalf("locate after kademlia gateway crash: %v", err)
	}
	if loc.Node != nw.Peers()[3].Name() {
		t.Fatalf("located at %q", loc.Node)
	}
}

func TestRoutedTraceOverKademlia(t *testing.T) {
	nw := buildNetOn(t, KademliaOverlay, 20, Config{Mode: GroupIndexing})
	obj := moods.ObjectID("kad-routed")
	moveObject(t, nw, obj, []int{4, 9, 15}, time.Second, time.Minute)
	nw.StartWindows(5 * time.Minute)
	nw.Run()
	res, err := nw.Peers()[0].TraceRouted(obj)
	if err != nil {
		t.Fatal(err)
	}
	assertPathsEqual(t, res.Path, nw.Oracle.FullTrace(obj), "kad routed")
}
