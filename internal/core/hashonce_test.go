package core

import (
	"testing"
	"time"

	"peertrack/internal/ids"
	"peertrack/internal/moods"
	"peertrack/internal/transport"
)

// spyNet shows a test every request a peer sends through its network.
type spyNet struct {
	transport.Network
	see func(to transport.Addr, req any)
}

func (s spyNet) Call(from, to transport.Addr, req any) (any, error) {
	s.see(to, req)
	return s.Network.Call(from, to, req)
}

// TestEventsCarryTheirHash: every event FlushWindow sends, in a group
// or alone, carries Object.Hash(), so the gateway it reaches in memory
// does not hash the object again.
func TestEventsCarryTheirHash(t *testing.T) {
	obss := tiedWorkload(t, 8)
	for _, mode := range []Mode{GroupIndexing, IndividualIndexing} {
		nw := buildNet(t, 8, Config{Mode: mode})
		seen := 0
		check := func(ev ObjEvent) {
			seen++
			if ev.id.IsZero() || ev.id != ev.Object.Hash() {
				t.Errorf("mode %v: event of %s carries id %s, want its hash %s", mode, ev.Object, ev.id.Short(), ev.Object.Hash().Short())
			}
		}
		for _, p := range nw.Peers() {
			p.net = spyNet{Network: p.net, see: func(_ transport.Addr, req any) {
				if r, ok := req.(groupArriveReq); ok {
					for _, ev := range r.Events {
						check(ev)
					}
				}
			}}
		}
		if err := nw.ScheduleAll(obss); err != nil {
			t.Fatal(err)
		}
		nw.StartWindows(20 * time.Second)
		nw.Run()
		// A peer that is its own gateway delivers without the network.
		if seen < len(obss)/2 {
			t.Errorf("mode %v: saw %d of %d events cross the network", mode, seen, len(obss))
		}
	}
}

// TestGroupArriveSameOverMemoryAndTCP sends one group message — its
// events carrying their ids — to a gateway over transport.Memory and to
// the same gateway of a twin network over loopback TCP. The wire never
// carries the id: the TCP handler sees none and hashes for itself, and
// both gateways end up with identical index entries.
func TestGroupArriveSameOverMemoryAndTCP(t *testing.T) {
	mem, twin := buildNet(t, 4, Config{Mode: GroupIndexing}), buildNet(t, 4, Config{Mode: GroupIndexing})
	reporter := mem.Peers()[1]
	key := ids.KeyOf(moods.ObjectID("case-0").Hash(), mem.lp())
	req := groupArriveReq{Key: key, Node: reporter.Name(), At: time.Second}
	for _, obj := range []moods.ObjectID{"case-0", "case-1", "urn:epc:id:sgtin:0614141.107346.2017"} {
		req.Events = append(req.Events, ObjEvent{Object: obj, Arrived: time.Second, id: obj.Hash()})
	}

	if _, err := mem.Transport.Call(reporter.Addr(), mem.Peers()[0].Addr(), req); err != nil {
		t.Fatal(err)
	}

	tcp := transport.NewTCP()
	defer tcp.Close()
	addr, err := tcp.RegisterAuto("127.0.0.1", func(from transport.Addr, got any) (any, error) {
		for _, ev := range got.(groupArriveReq).Events {
			if !ev.id.IsZero() {
				t.Errorf("event of %s arrived over TCP with id %s", ev.Object, ev.id.Short())
			}
		}
		return twin.Peers()[0].handleRPC(from, got)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tcp.Call(reporter.Addr(), addr, req); err != nil {
		t.Fatal(err)
	}

	for _, ev := range req.Events {
		a, okA := mem.Peers()[0].gw.lookup(key, ev.id)
		b, okB := twin.Peers()[0].gw.lookup(key, ev.id)
		if !okA || !okB || a != b || a.ID != ev.Object.Hash() {
			t.Errorf("%s: indexed %+v (%v) over Memory, %+v (%v) over TCP", ev.Object, a, okA, b, okB)
		}
	}
}
