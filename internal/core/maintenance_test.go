package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"peertrack/internal/chord"
	"peertrack/internal/gossip"
	"peertrack/internal/ids"
	"peertrack/internal/moods"
	"peertrack/internal/sim"
	"peertrack/internal/telemetry"
	"peertrack/internal/transport"
)

// nodeDefaults are peertrack.NodeOptions' default cadences.
var nodeDefaults = Cadences{
	Gossip:      time.Second,
	Stabilize:   2 * time.Second,
	Window:      time.Second,
	ReplicaSync: 10 * time.Second,
}

func maintainedNet(t *testing.T) *Network {
	t.Helper()
	nw, err := BuildNetwork(NetworkConfig{Nodes: 6, Seed: 3, Peer: Config{ReplicationFactor: 2}, Gossip: &gossip.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestMaintenanceTableSchedule pins the schedule: which rows exist, how
// often each fires at the default cadences, and that rows due at the
// same instant run in the order the table (and DESIGN.md) lists them.
// The expectation is spelled out here, not derived from the table, so
// dropping a row or swapping two fails.
func TestMaintenanceTableSchedule(t *testing.T) {
	want := []struct {
		name  string
		fires int // in 60 virtual seconds
	}{
		{"gossip-round", 60},
		{"successor-repair", 60},
		{"stabilize", 30},
		{"window-flush", 60},
		{"refresh", 3},      // 10 × stabilize: 20s, 40s, 60s
		{"replica-gc", 1},   // every 4th replica tick: 40s
		{"replica-sync", 6}, // 10s … 60s
	}
	rank := map[string]int{}
	for i, w := range want {
		rank[w.name] = i
	}

	nw := maintainedNet(t)
	p := nw.Peers()[0]

	type firing struct {
		at   time.Duration
		name string
	}
	var log []firing
	traced := append([]maintenanceRow(nil), maintenanceTable...)
	for i, row := range maintenanceTable {
		traced[i].run = func(p *Peer) {
			log = append(log, firing{nw.Kernel.Now(), row.name})
			row.run(p)
		}
	}
	installMaintenance(nw.Kernel, traced, nodeDefaults, time.Minute, func(visit func(*Peer)) { visit(p) })
	if end := nw.Kernel.Run(); end != time.Minute {
		t.Fatalf("kernel drained at %v, want the 60s horizon", end)
	}

	fires := map[string]int{}
	var at40 []string
	for i, f := range log {
		if _, ok := rank[f.name]; !ok {
			t.Fatalf("table has a row %q this test does not know", f.name)
		}
		fires[f.name]++
		if i > 0 && log[i-1].at == f.at && rank[log[i-1].name] >= rank[f.name] {
			t.Errorf("at %v %s ran before %s", f.at, log[i-1].name, f.name)
		}
		if f.at == 40*time.Second {
			at40 = append(at40, f.name)
		}
	}
	for _, w := range want {
		if fires[w.name] != w.fires {
			t.Errorf("%s fired %d times in 60s, want %d", w.name, fires[w.name], w.fires)
		}
	}
	// 40s is the one instant every row is due.
	var all []string
	for _, w := range want {
		all = append(all, w.name)
	}
	if fmt.Sprint(at40) != fmt.Sprint(all) {
		t.Errorf("order at 40s = %v, want %v", at40, all)
	}

	// The rows did their work, not just their bookkeeping.
	for name, want := range map[string]uint64{
		"gossip.rounds":          60,
		"chord.stabilize.rounds": 30,
	} {
		if got := nw.Telemetry.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestStartMaintenanceRunsTheTableOnEveryPeer drives a replicated
// network by the table alone — no StartWindows, no SyncReplicas — and
// checks that Run drains at the horizon with every capture indexed and
// every owned unit probed.
func TestStartMaintenanceRunsTheTableOnEveryPeer(t *testing.T) {
	nw := maintainedNet(t)
	var objs []moods.ObjectID
	for i := 0; i < 30; i++ {
		obj := moods.ObjectID(fmt.Sprintf("urn:obj:%03d", i))
		objs = append(objs, obj)
		for hop := 0; hop < 2; hop++ {
			if err := nw.ScheduleObservation(moods.Observation{
				Object: obj,
				Node:   NodeNameFor((i + hop) % nw.Size()),
				At:     time.Duration(i)*100*time.Millisecond + time.Duration(hop)*5*time.Second,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	nw.StartMaintenance(nodeDefaults, time.Minute)
	if end := nw.Kernel.Run(); end != time.Minute {
		t.Fatalf("kernel drained at %v, want the 60s horizon", end)
	}

	if got, want := nw.Telemetry.Counter("gossip.rounds").Value(), uint64(60*nw.Size()); got != want {
		t.Errorf("gossip.rounds = %d, want %d (60 per peer)", got, want)
	}
	if nw.Telemetry.Counter("core.replication.probes").Value() == 0 {
		t.Error("replica-sync row never probed a mirror")
	}
	for _, p := range nw.Peers() {
		if n := p.Buffered(); n != 0 {
			t.Errorf("%s still buffers %d captures after the last window-flush row", p.Name(), n)
		}
	}
	for _, obj := range objs {
		res, err := nw.Peers()[0].FullTrace(obj)
		if err != nil {
			t.Fatalf("trace %s: %v", obj, err)
		}
		if want := nw.Oracle.FullTrace(obj); !res.Path.Equal(want) {
			t.Errorf("trace %s = %v, want %v", obj, res.Path.Nodes(), want.Nodes())
		}
	}
}

// burst is what joinBurst built.
type burst struct {
	k     *sim.Kernel
	mem   *transport.Memory
	nodes []*chord.Node
	regs  []*telemetry.Registry // one per node, as on a live fleet
}

func (b burst) rounds(i int) uint64 { return b.regs[i].Counter("chord.stabilize.rounds").Value() }

// joinBurst puts n chord+peer participants on one kernel and one memory
// transport, each under the table at node defaults until the horizon,
// and joins all but the first through the first at t=0.
func joinBurst(t *testing.T, n int, until sim.Time) burst {
	t.Helper()
	b := burst{k: sim.New(1), mem: transport.NewMemory(2)}
	for i := 0; i < n; i++ {
		reg := telemetry.New(b.k.Now)
		p, err := NewPeer(b.mem, transport.Addr(NodeNameFor(i)), false, chord.Config{}, Scheme2, float64(n), Config{}, b.k.Now, reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		p.Node().OnRingChange(p.Install(b.k, nodeDefaults, until))
		b.nodes, b.regs = append(b.nodes, p.Node()), append(b.regs, reg)
	}
	for _, cn := range b.nodes[1:] {
		if err := cn.Join(b.nodes[0].Self()); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestJoinBurstConverges pins a join burst on virtual time, at 16 and 64
// nodes. One bootstrap, every join at t=0: the joins' own stabilize
// rounds walk the predecessor chain and place each joiner, the first
// catch-up round at 31 ms closes the ring — on the 2 s timer alone not
// before the bootstrap's third round at 6 s, and one node per round —
// and the chain's rounds build the finger tables: by the time the
// bootstrap has run ⌈log2 n⌉ + 2 rounds a lookup costs under log2 n hops
// (at the instant of closing a table has had one or two calls of its
// first pass: 3.9 hops at 16 nodes, 11.9 at 64). Once the chains have run
// out a quiet minute costs exactly the table's 30 rounds.
func TestJoinBurstConverges(t *testing.T) {
	for _, n := range []int{16, 64} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			log2n := math.Log2(float64(n))
			budget := uint64(math.Ceil(log2n)) + 2
			b := joinBurst(t, n, sim.Forever)
			for !chord.Converged(b.nodes) {
				if b.k.Now() > time.Second {
					t.Fatal("successor and predecessor walks do not close by t=1s")
				}
				b.k.Step()
			}
			closed := b.k.Now()
			if r := b.rounds(0); r > budget {
				t.Errorf("ring closed after %d rounds on the bootstrap, want ≤ ⌈log2 n⌉ + 2 = %d", r, budget)
			}
			for b.rounds(0) < budget {
				b.k.Step()
			}
			hops := 0
			for key := 0; key < 64; key++ {
				for _, cn := range b.nodes {
					res, err := cn.Lookup(ids.HashString(fmt.Sprintf("key-%d", key)))
					if err != nil {
						t.Fatal(err)
					}
					hops += res.Hops
				}
			}
			mean := float64(hops) / float64(64*n)
			t.Logf("ring closed at %v; %.2f hops a lookup at %v, the bootstrap's round %d", closed, mean, b.k.Now(), budget)
			if mean > log2n {
				t.Errorf("a lookup costs %.2f hops after %d rounds, want ≤ log2 n = %.0f", mean, budget, log2n)
			}

			b.k.RunUntil(time.Second)
			for i, n := range b.nodes {
				if r := b.rounds(i); r < 3 {
					t.Errorf("%s has run %d stabilize rounds by t=1s, want ≥ 3", n.Addr(), r)
				}
			}
			// The last pointer moved before 1 s, so every chain (63/64 of a
			// cadence from its last change to its last round) has ended by 4 s.
			b.k.RunUntil(4 * time.Second)
			before := make([]uint64, len(b.nodes))
			for i := range b.nodes {
				before[i] = b.rounds(i)
			}
			b.k.RunUntil(64 * time.Second)
			for i, n := range b.nodes {
				if got := b.rounds(i) - before[i]; got != 30 {
					t.Errorf("%s ran %d stabilize rounds in a quiet minute, want the row's 30", n.Addr(), got)
				}
			}
		})
	}
}

// TestCatchUpChainShape pins the chain's spacing on a two-node ring:
// six extra rounds at doubling gaps from Stabilize/64 follow the last
// ring change, a dead neighbour neither starts the chain nor lets it
// continue, and nothing is scheduled past the horizon.
func TestCatchUpChainShape(t *testing.T) {
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	// stepTo runs the kernel to the deadline and returns the instants at
	// which count moved.
	stepTo := func(b burst, deadline time.Duration, count func() uint64) (at []time.Duration) {
		last := count()
		for {
			next, _ := b.k.NextAt()
			if next > deadline {
				return at
			}
			b.k.Step()
			if v := count(); v != last {
				last = v
				if len(at) == 0 || at[len(at)-1] != b.k.Now() {
					at = append(at, b.k.Now())
				}
			}
		}
	}

	b := joinBurst(t, 2, sim.Forever)
	// The joiner's first catch-up round finds nothing new; by its second
	// the bootstrap has adopted and notified it, which resets the gap;
	// the six rounds after that see no change and the 2 s row is alone
	// again from 4 s on.
	got := stepTo(b, 9*time.Second, func() uint64 { return b.rounds(1) })
	want := []time.Duration{ms(31.25), ms(93.75),
		ms(125), ms(187.5), ms(312.5), ms(562.5), ms(1062.5), 2 * time.Second, ms(2062.5),
		4 * time.Second, 6 * time.Second, 8 * time.Second}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("joiner stabilized at %v\nwant                  %v", got, want)
	}

	// The bootstrap dies. The joiner's 10 s row clears its predecessor
	// and fails to stabilize: dead-neighbour handling, which arms nothing.
	blocked := func() uint64 { return b.mem.Stats().Snapshot().Blocked }
	b.mem.Kill(b.nodes[0].Addr())
	got = stepTo(b, 15*time.Second, blocked)
	want = []time.Duration{10 * time.Second, 12 * time.Second, 14 * time.Second}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("joiner called its dead neighbour at %v, want %v", got, want)
	}

	// The bootstrap dies while the joiner's chain is running: the round
	// that finds no live successor is the chain's last.
	b = joinBurst(t, 2, sim.Forever)
	b.mem.Kill(b.nodes[0].Addr())
	got = stepTo(b, 5*time.Second, blocked)
	want = []time.Duration{ms(31.25), 2 * time.Second, 4 * time.Second}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("joiner called its dead bootstrap at %v, want %v", got, want)
	}

	// A gossip sample puts a dead node back at the head of a successor
	// list (samples are not validated; this repeats every gossip round
	// until the verdict). That is a ring change and arms the chain; the
	// round that fails over past the dead head is the chain's last.
	b = joinBurst(t, 3, sim.Forever)
	stepTo(b, 9*time.Second, blocked)
	ring := append([]*chord.Node(nil), b.nodes...)
	chord.SortByID(ring)
	x, y := ring[0], ring[1]
	b.mem.Kill(y.Addr())
	stepTo(b, 10500*time.Millisecond, blocked) // x's 10 s row fails over to ring[2]
	b.k.RunUntil(10500 * time.Millisecond)
	x.RepairFromSamples([]chord.NodeRef{y.Self()}, nil)
	if !x.Successor().Equal(y.Self()) {
		t.Fatal("sample repair did not put the dead node back at the head")
	}
	xi := 0
	for i, n := range b.nodes {
		if n == x {
			xi = i
		}
	}
	got = stepTo(b, 15*time.Second, func() uint64 { return b.rounds(xi) })
	want = []time.Duration{ms(10531.25), 12 * time.Second, 14 * time.Second}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("after a dead sample took the head, %s stabilized at %v, want %v", x.Addr(), got, want)
	}
	// Every other second the repair row and the stabilize row share an
	// instant, and it is the row's round that fails over, before the
	// chain's first: that round is its last all the same.
	b.k.RunUntil(15 * time.Second)
	x.RepairFromSamples([]chord.NodeRef{y.Self()}, nil)
	x.Stabilize()
	got = stepTo(b, 19*time.Second, func() uint64 { return b.rounds(xi) })
	want = []time.Duration{ms(15031.25), 16 * time.Second, 18 * time.Second}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("after the row failed over past a dead sample, %s stabilized at %v, want %v", x.Addr(), got, want)
	}

	b = joinBurst(t, 2, 100*time.Millisecond)
	if end := b.k.Run(); end != ms(93.75) {
		t.Errorf("kernel with a 100ms horizon drained at %v, want the chain's last round inside it, 93.75ms", end)
	}
}
