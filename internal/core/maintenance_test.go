package core

import (
	"fmt"
	"testing"
	"time"

	"peertrack/internal/chord"
	"peertrack/internal/gossip"
	"peertrack/internal/moods"
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
	nw, err := BuildNetwork(NetworkConfig{Nodes: 6, Seed: 3, Peer: Config{ReplicationFactor: 2}})
	if err != nil {
		t.Fatal(err)
	}
	nw.EnableGossip(gossip.Config{})
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
	m := Maintained{Chord: p.Node().(*chord.Node), Gossip: p.Gossip(), Peer: p, SizePinned: true}

	type firing struct {
		at   time.Duration
		name string
	}
	var log []firing
	traced := append([]maintenanceRow(nil), maintenanceTable...)
	for i, row := range maintenanceTable {
		traced[i].run = func(m Maintained) {
			log = append(log, firing{nw.Kernel.Now(), row.name})
			row.run(m)
		}
	}
	installMaintenance(nw.Kernel, traced, nodeDefaults, time.Minute, func(visit func(Maintained)) { visit(m) })
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
