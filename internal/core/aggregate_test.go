package core

import (
	"fmt"
	"testing"
	"time"

	"peertrack/internal/moods"
)

func TestInventoryTracksPresence(t *testing.T) {
	nw := buildNet(t, 10, Config{Mode: GroupIndexing})
	// 5 objects arrive at node 2; 2 of them move on to node 7.
	for i := 0; i < 5; i++ {
		obj := moods.ObjectID(fmt.Sprintf("inv-%d", i))
		nw.ScheduleObservation(moods.Observation{Object: obj, Node: nw.Peers()[2].Name(), At: time.Second})
		if i < 2 {
			nw.ScheduleObservation(moods.Observation{Object: obj, Node: nw.Peers()[7].Name(), At: time.Minute})
		}
	}
	nw.StartWindows(2 * time.Minute)
	nw.Run()

	if got := nw.Peers()[2].Inventory(); len(got) != 3 {
		t.Fatalf("node2 inventory = %v, want 3 objects (2 moved away)", got)
	}
	if got := nw.Peers()[7].Inventory(); len(got) != 2 {
		t.Fatalf("node7 inventory = %v, want 2 objects", got)
	}
}

// The dwell statistics a node learns from the M2s it receives — what
// PredictNext reads: departures per destination and their mean dwell.
func TestDwellStats(t *testing.T) {
	nw := buildNet(t, 10, Config{Mode: GroupIndexing})
	// 4 objects dwell 30 minutes at node 1 before moving to node 6.
	for i := 0; i < 4; i++ {
		obj := moods.ObjectID(fmt.Sprintf("dw-%d", i))
		nw.ScheduleObservation(moods.Observation{Object: obj, Node: nw.Peers()[1].Name(), At: time.Second})
		nw.ScheduleObservation(moods.Observation{Object: obj, Node: nw.Peers()[6].Name(), At: time.Second + 30*time.Minute})
	}
	nw.StartWindows(time.Hour)
	nw.Run()

	m := nw.Peers()[1].trans.model()
	dests, counts, dwells := m.Dests, m.Counts, m.MeanDwell
	if len(dests) != 1 || dests[0] != nw.Peers()[6].Name() || counts[0] != 4 {
		t.Fatalf("departures = %v %v, want 4 to %s", dests, counts, nw.Peers()[6].Name())
	}
	if dwells[0] < 29*time.Minute || dwells[0] > 31*time.Minute {
		t.Fatalf("mean dwell = %v, want ≈30m", dwells[0])
	}
	// A node with no departures has learnt nothing.
	if m := nw.Peers()[9].trans.model(); len(m.Dests) != 0 {
		t.Fatalf("idle node departures = %v", m.Dests)
	}
}
