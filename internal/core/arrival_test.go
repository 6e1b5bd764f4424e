package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"peertrack/internal/ids"
	"peertrack/internal/moods"
	"peertrack/internal/transport"
)

// What a group arrival sends and records must not depend on how the
// gateway finds the objects it does not know: these tests pin the M2/M3
// batching, the span text of a pinned gateway, and the refresh and
// promotion counts where the gateway still looks every event up first.

// sameGroup returns n object codes whose hashed ids share one lp-bit
// prefix.
func sameGroup(lp, n int, stem string) []moods.ObjectID {
	var objs []moods.ObjectID
	var key ids.PrefixKey
	for i := 0; len(objs) < n; i++ {
		obj := moods.ObjectID(fmt.Sprintf("%s-%d", stem, i))
		if k := ids.KeyOf(obj.Hash(), lp); len(objs) == 0 || k == key {
			key = k
			objs = append(objs, obj)
		}
	}
	return objs
}

// sentMsg is one request a spied peer sent.
type sentMsg struct {
	to  transport.Addr
	req any
}

// TestMovesBatchPerSourceNode: one arrival whose moved objects come from
// three interleaved source nodes sends one M2 per source node, in node
// name order, each with that node's objects in arrival order, and then
// one M3 with every link in arrival order.
func TestMovesBatchPerSourceNode(t *testing.T) {
	nw := buildNet(t, 8, Config{Mode: GroupIndexing})
	objs := sameGroup(nw.lp(), 9, "tote")
	gw, _ := gatewayOf(nw, objs[0])
	ps := othersThan(nw, 4, gw)
	srcs, dest := []*Peer{ps[2], ps[0], ps[1]}, ps[3] // arrival order is not name order
	for i, obj := range objs {
		observeAndFlush(t, srcs[i%3], obj, time.Second)
	}

	var sent []sentMsg
	gw.net = spyNet{Network: gw.net, see: func(to transport.Addr, req any) { sent = append(sent, sentMsg{to, req}) }}
	var links []IOPLink
	for i, obj := range objs {
		at := time.Minute + time.Duration(i)*time.Second
		if err := dest.Observe(moods.Observation{Object: obj, At: at}); err != nil {
			t.Fatal(err)
		}
		links = append(links, IOPLink{Object: obj, From: srcs[i%3].Name(), At: at})
	}
	if err := dest.FlushWindow(); err != nil {
		t.Fatal(err)
	}

	var want []sentMsg
	byName := slices.Clone(srcs)
	slices.SortFunc(byName, func(a, b *Peer) int { return strings.Compare(string(a.Name()), string(b.Name())) })
	for _, src := range byName {
		var moved []moods.ObjectID
		for i, obj := range objs {
			if srcs[i%3] == src {
				moved = append(moved, obj)
			}
		}
		want = append(want, sentMsg{src.Addr(), iopSetToReq{Objects: moved, To: dest.Name()}})
	}
	want = append(want, sentMsg{dest.Addr(), iopSetFromReq{Links: links}})
	if !reflect.DeepEqual(sent, want) {
		t.Errorf("the gateway sent\n%+v\nwant\n%+v", sent, want)
	}
}

// TestSpanTextRepeatedObject: a pinned, unmirrored gateway counts an
// object reported twice in one message as the lookup before the index
// update did — unknown both times when the gateway had no record of it,
// known both times when it had — whether the repeat is later or earlier
// than the first report.
func TestSpanTextRepeatedObject(t *testing.T) {
	nw := buildNet(t, 8, Config{Mode: GroupIndexing})
	objs := sameGroup(nw.lp(), 3, "bin")
	gw, _ := gatewayOf(nw, objs[0])
	ps := othersThan(nw, 2, gw)
	a, b := ps[0], ps[1]
	observeAndFlush(t, a, objs[0], time.Second)
	for _, o := range []struct {
		obj moods.ObjectID
		at  time.Duration
	}{{objs[0], 10 * time.Second}, {objs[1], 5 * time.Second}, {objs[2], 3 * time.Second}, {objs[1], 2 * time.Second}, {objs[0], 11 * time.Second}, {objs[2], 6 * time.Second}} {
		if err := b.Observe(moods.Observation{Object: o.obj, At: o.at}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.FlushWindow(); err != nil {
		t.Fatal(err)
	}
	wantSpans(t, nw, 1, `index key=10100 t=[0s→0s] hops=2 steps=4 ok
  0s org-0007: gateway: 6 events from org-0002, 4 unknown
  0s org-0007: refresh: 0 of 4 unknown resolved from ascent
  0s org-0000: M2: 1 objects moved on to org-0002
  0s org-0002: M3: 1 inbound links
`)
}

// TestArrivalStillPartitions: where the records of an arrival's unknown
// objects can be elsewhere — Lp has been shorter, or a mirror holds
// copies the gateway now owns — the gateway looks every event up before
// it updates the index, and refreshes or promotes what it finds. The
// counts and span texts are those of the revision in which every gateway
// did so.
func TestArrivalStillPartitions(t *testing.T) {
	t.Run("ascent", func(t *testing.T) {
		nw := buildNet(t, 16, Config{Mode: GroupIndexing})
		objs := sameGroup(10, 4, "crate")
		a, b := nw.Peers()[2], nw.Peers()[9]
		for i, obj := range objs {
			observeAndFlush(t, a, obj, time.Duration(i+1)*time.Second)
		}
		// The network grows without reconciliation: the records sit at the
		// gateway of a shorter prefix than the one the objects now map to.
		if oldLp, newLp := nw.resize(128); newLp != 10 {
			t.Fatalf("Lp %d -> %d, want 10", oldLp, newLp)
		}
		for _, p := range nw.Peers() {
			p.InvalidateGatewayCache()
		}
		for i, obj := range objs {
			if err := b.Observe(moods.Observation{Object: obj, At: time.Minute + time.Duration(i)*time.Second}); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.FlushWindow(); err != nil {
			t.Fatal(err)
		}
		if got := nw.Telemetry.Counter("core.triangle.ascent_fetches").Value(); got != 4 {
			t.Errorf("core.triangle.ascent_fetches = %d, want 4", got)
		}
		wantSpans(t, nw, 1, `index key=1000110001 t=[0s→0s] hops=2 steps=4 ok
  0s org-0006: gateway: 4 events from org-0005, 4 unknown
  0s org-0006: refresh: 4 of 4 unknown resolved from ascent
  0s org-0014: M2: 4 objects moved on to org-0005
  0s org-0005: M3: 4 inbound links
`)
	})

	t.Run("promotion", func(t *testing.T) {
		nw := buildNet(t, 16, Config{Mode: GroupIndexing, ReplicationFactor: 2})
		objs := sameGroup(nw.lp(), 4, "case")
		gw, _ := gatewayOf(nw, objs[0])
		ps := othersThan(nw, 2, gw)
		a, b := ps[0], ps[1]
		for i, obj := range objs {
			observeAndFlush(t, a, obj, time.Duration(i+1)*time.Second)
		}
		// The gateway crashes and the ring repairs: its mirror now owns the
		// group and holds a copy of every record.
		nw.Transport.Kill(gw.Addr())
		for r := 0; r < 8; r++ {
			for _, p := range othersThan(nw, 15, gw) {
				p.Node().CheckPredecessor()
				p.Node().Stabilize()
			}
		}
		for _, p := range othersThan(nw, 15, gw) {
			p.Node().FixAllFingers()
			p.InvalidateGatewayCache()
		}
		for i, obj := range objs {
			if err := b.Observe(moods.Observation{Object: obj, At: time.Minute + time.Duration(i)*time.Second}); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.FlushWindow(); err != nil {
			t.Fatal(err)
		}
		// The lookup promoted the copies, so the objects are known and move
		// on. (core.replication.promotions counts the held units a ring-change
		// sweep promotes; none ran.)
		if got := nw.Telemetry.Counter("core.replication.promotions").Value(); got != 0 {
			t.Errorf("core.replication.promotions = %d, want 0", got)
		}
		wantSpans(t, nw, 1, `index key=100001 t=[0s→0s] hops=2 steps=3 ok
  0s org-0010: gateway: 4 events from org-0015, 0 unknown
  0s org-0000: M2: 4 objects moved on to org-0015
  0s org-0015: M3: 4 inbound links
`)
	})
}

// TestLateArrivalDoesNotPromoteUnownedReplicaCopy: a late arrival that
// reaches a gateway's mirror, which holds the object only as a copy of a
// bucket it does not own, is stitched against that copy and promotes
// nothing, in a prefix bucket as in the individual one. Promotion
// belongs to ownership (promote's Owns gate, the ring-change sweep): a
// write path that promoted on the side would let a mirror serving while
// the owner is merely unreachable take its records, and one that did not
// see the copy would write a first sighting with no Prev and no link.
func TestLateArrivalDoesNotPromoteUnownedReplicaCopy(t *testing.T) {
	for _, mode := range []struct {
		mode Mode
		name string
	}{{IndividualIndexing, "individual"}, {GroupIndexing, "group"}} {
		t.Run(mode.name, func(t *testing.T) {
			nw := buildNet(t, 8, Config{Mode: mode.mode, ReplicationFactor: 2})
			obj := moods.ObjectID("pallet")
			id := obj.Hash()
			gw, key := gatewayOf(nw, obj)
			m := mirrorOf(nw, gw)
			ps := othersThan(nw, 2, gw, m)
			a, late := ps[0], ps[1]
			observeAndFlush(t, a, obj, 10*time.Second)
			head, _ := gw.gw.lookup(key, id)
			if copied, ok := m.replica.lookup(key, id); !ok || copied != head || m.chord.Owns(placedAt(key, id)) {
				t.Fatalf("setup: the mirror holds %+v (%v), the owner %+v; the mirror owns the bucket: %v", copied, ok, head, m.chord.Owns(placedAt(key, id)))
			}
			if _, ok := m.gw.lookup(key, id); ok {
				t.Fatal("setup: the mirror already holds a primary record")
			}

			late.repo.record(obj, 5*time.Second)
			req := groupArriveReq{Key: key, Events: []ObjEvent{{Object: obj, Arrived: 5 * time.Second}}, Node: late.Name(), At: 5 * time.Second}
			if _, err := m.handleRPC(late.Addr(), req); err != nil {
				t.Fatal(err)
			}
			if e, ok := m.gw.lookup(key, id); ok {
				t.Errorf("the late arrival wrote the mirror's primary store: %+v", e)
			}
			if copied, _ := m.replica.lookup(key, id); copied != head {
				t.Errorf("the copy is %+v after the late arrival, want %+v", copied, head)
			}
			if now, _ := gw.gw.lookup(key, id); now != head {
				t.Errorf("the owner's head is %+v after the late arrival, want %+v", now, head)
			}
			// Stitched in front of the head the copy names.
			if vs, _ := late.repo.get(obj); len(vs) != 1 || vs[0].To != a.Name() {
				t.Errorf("the late visit is %+v, want it linked on to %s", vs, a.Name())
			}
			if vs, _ := a.repo.get(obj); len(vs) != 1 || vs[0].From != late.Name() {
				t.Errorf("the head's visit is %+v, want it linked from %s", vs, late.Name())
			}
		})
	}
}

// TestIndividualArrivalWaitsForItsGateway: under individual indexing an
// arrival whose gateway is down stays in the window, as a group does,
// and is indexed by the first flush after the gateway is back.
func TestIndividualArrivalWaitsForItsGateway(t *testing.T) {
	nw := buildNet(t, 8, Config{Mode: IndividualIndexing})
	obj := moods.ObjectID("pallet")
	gw, _ := gatewayOf(nw, obj)
	ps := othersThan(nw, 2, gw)
	reporter, asker := ps[0], ps[1]
	nw.Transport.Kill(gw.Addr())
	if err := reporter.Observe(moods.Observation{Object: obj, At: time.Second}); err == nil {
		t.Error("Observe reported no error with the gateway down")
	}
	if n := reporter.Buffered(); n != 1 {
		t.Fatalf("%d events buffered after the failed arrival, want 1", n)
	}
	nw.Transport.Revive(gw.Addr())
	if err := reporter.FlushWindow(); err != nil {
		t.Fatal(err)
	}
	if res, err := asker.Locate(obj, time.Hour); err != nil || res.Node != reporter.Name() {
		t.Errorf("Locate = %+v, %v; want %s", res, err, reporter.Name())
	}
}
