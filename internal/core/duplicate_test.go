package core

import (
	"fmt"
	"testing"

	"peertrack/internal/transport"
	"peertrack/internal/workload"
)

// duplicator delivers some requests twice, as a retry whose first
// attempt did arrive does: every period-th request that reaches a peer
// runs its handler a second time, at once (delay 0) or replayed when
// delay further requests have arrived, ahead of the one that makes the
// count. The replay's answer goes nowhere. It wraps the handlers, so a
// peer's calls to itself, which never leave it, are not duplicated.
type duplicator struct {
	period, delay int
	calls         int
	pending       []replay
	replayed      map[string]int // per request type
}

type replay struct {
	due int
	run func()
}

func (d *duplicator) wrap(h transport.Handler) transport.Handler {
	return func(from transport.Addr, req any) (any, error) {
		d.calls++
		for len(d.pending) > 0 && d.pending[0].due <= d.calls {
			r := d.pending[0]
			d.pending = d.pending[1:]
			r.run()
		}
		if d.calls%d.period != 0 {
			return h(from, req)
		}
		d.replayed[fmt.Sprintf("%T", req)]++
		if d.delay == 0 {
			h(from, req)
			return h(from, req)
		}
		d.pending = append(d.pending, replay{due: d.calls + d.delay, run: func() { h(from, req) }})
		return h(from, req)
	}
}

// TestDuplicateDeliveryKeepsTracesExact: at replication factor 1 the
// protocol tolerates a request applied twice — an index arrival, a
// stitch, a delegation, a lookup — whether the copy lands at once or
// twenty requests later. Every mover of a 32 × 200 Section V workload
// traces exactly, in group and in individual mode.
func TestDuplicateDeliveryKeepsTracesExact(t *testing.T) {
	for _, m := range []struct {
		mode Mode
		name string
	}{{GroupIndexing, "group"}, {IndividualIndexing, "individual"}} {
		mode := m.mode
		for _, period := range []int{7, 50} {
			for _, delay := range []int{0, 20} {
				t.Run(fmt.Sprintf("%s/every%d/delay%d", m.name, period, delay), func(t *testing.T) {
					nw := buildNet(t, 32, Config{Mode: mode})
					d := &duplicator{period: period, delay: delay, replayed: map[string]int{}}
					for _, p := range nw.Peers() {
						nw.Transport.Register(p.Addr(), d.wrap(p.Node().HandleRPC))
					}
					wl, err := workload.PaperSpec{
						Nodes: nodeNames(32), ObjectsPerNode: 200, MoveFraction: 0.10, TraceLen: 10,
						Grouped: mode == GroupIndexing, Seed: 3,
					}.Generate()
					if err != nil {
						t.Fatal(err)
					}
					if err := nw.ScheduleAll(wl.Observations); err != nil {
						t.Fatal(err)
					}
					nw.StartWindows(wl.Horizon + 2*TInterval)
					nw.Run()
					for _, r := range d.pending {
						r.run()
					}
					if len(d.replayed) == 0 {
						t.Fatal("no request was delivered twice")
					}
					t.Logf("%d requests, duplicated by type: %v", d.calls, d.replayed)
					for i, obj := range wl.Movers {
						res, err := nw.Peers()[i%32].FullTrace(obj)
						if err != nil {
							t.Fatalf("trace %s: %v", obj, err)
						}
						assertPathsEqual(t, res.Path, nw.Oracle.FullTrace(obj), string(obj))
					}
				})
			}
		}
	}
}
