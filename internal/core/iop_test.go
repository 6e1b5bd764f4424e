package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"peertrack/internal/moods"
)

func TestIOPStoreRecordSorted(t *testing.T) {
	s := newIOPStore(new(nameTable), false)
	s.record("o", 30*time.Second)
	s.record("o", 10*time.Second)
	s.record("o", 20*time.Second)
	vs, ok := s.get("o")
	if !ok || len(vs) != 3 {
		t.Fatalf("visits = %v", vs)
	}
	for i := 1; i < len(vs); i++ {
		if vs[i].Arrived < vs[i-1].Arrived {
			t.Fatal("visits not sorted")
		}
	}
}

func TestIOPStoreSetFromExactMatch(t *testing.T) {
	s := newIOPStore(new(nameTable), false)
	s.record("o", 10*time.Second)
	s.record("o", 20*time.Second)
	s.setFrom("o", "src", 10*time.Second)
	vs, _ := s.get("o")
	if vs[0].From != "src" {
		t.Errorf("first visit From = %q", vs[0].From)
	}
	if vs[1].From != "" {
		t.Errorf("second visit From = %q, want unset", vs[1].From)
	}
}

func TestIOPStoreSetFromFallsBackToLatest(t *testing.T) {
	s := newIOPStore(new(nameTable), false)
	s.record("o", 10*time.Second)
	s.record("o", 20*time.Second)
	// No exact timestamp match: annotate the latest visit.
	s.setFrom("o", "src", 15*time.Second)
	vs, _ := s.get("o")
	if vs[1].From != "src" {
		t.Errorf("latest visit From = %q", vs[1].From)
	}
}

func TestIOPStoreSetFromBeforeRecord(t *testing.T) {
	// IOP link arriving before the local capture record must create the
	// visit rather than drop the link.
	s := newIOPStore(new(nameTable), false)
	s.setFrom("o", "src", 5*time.Second)
	vs, ok := s.get("o")
	if !ok || len(vs) != 1 {
		t.Fatalf("visits = %v", vs)
	}
	if vs[0].From != "src" || vs[0].Arrived != 5*time.Second {
		t.Errorf("visit = %+v", vs[0])
	}
}

func TestIOPStoreSetToPicksVisitBeforeDeparture(t *testing.T) {
	s := newIOPStore(new(nameTable), false)
	s.record("o", 10*time.Second)
	s.record("o", 50*time.Second)
	// Departure at t=30 belongs to the first visit.
	s.setTo("o", "dst", 30*time.Second)
	vs, _ := s.get("o")
	if vs[0].To != "dst" {
		t.Errorf("first visit To = %q", vs[0].To)
	}
	if vs[1].To != "" {
		t.Errorf("second visit To = %q, want unset", vs[1].To)
	}
}

// TestIOPStoreSetToAnchor pins, per visit shape, which visit setTo
// annotates and the dwell anchor it returns: the arrival of the latest
// visit at or before the departure, which M2's handler feeds the
// transition model. With none at or before, the latest visit is
// annotated and there is no anchor.
func TestIOPStoreSetToAnchor(t *testing.T) {
	s := func(v int) time.Duration { return time.Duration(v) * time.Second }
	cases := []struct {
		name       string
		recorded   []int // arrivals, in recording order
		at         int
		wantAnchor int  // seconds; meaningful when wantOK
		wantOK     bool // a visit started at or before the departure
		wantTo     int  // index of the annotated visit in time order; -1 none
	}{
		{"unknown object", nil, 10, 0, false, -1},
		{"first only, departure after it", []int{10}, 20, 10, true, 0},
		{"first only, departure at its arrival", []int{10}, 10, 10, true, 0},
		{"first only, none at or before", []int{10}, 5, 0, false, 0},
		{"rest, departure between first and second", []int{10, 20}, 15, 10, true, 0},
		{"rest, departure between later visits", []int{10, 20, 30}, 25, 20, true, 1},
		{"rest, departure after the last", []int{10, 20, 30}, 35, 30, true, 2},
		{"rest, none at or before", []int{10, 20, 30}, 5, 0, false, 2},
		{"re-sighting at one instant", []int{10, 10}, 10, 10, true, 1},
		{"re-sighting recorded out of order", []int{30, 10}, 20, 10, true, 0},
	}
	for _, c := range cases {
		st := newIOPStore(new(nameTable), false)
		for _, v := range c.recorded {
			st.record("o", s(v))
		}
		anchor, ok := st.setTo("o", "dst", s(c.at))
		if ok != c.wantOK || (ok && anchor != s(c.wantAnchor)) {
			t.Errorf("%s: setTo = (%v, %v), want (%v, %v)", c.name, anchor, ok, s(c.wantAnchor), c.wantOK)
		}
		vs, _ := st.get("o")
		for i, v := range vs {
			if annotated := v.To == "dst"; annotated != (i == c.wantTo) {
				t.Errorf("%s: visit %d (arrived %v) To = %q, want it annotated only at %d", c.name, i, v.Arrived, v.To, c.wantTo)
			}
		}
	}
}

func TestIOPStoreSetToUnknownObjectIsNoop(t *testing.T) {
	s := newIOPStore(new(nameTable), false)
	s.setTo("ghost", "dst", time.Second)
	if _, ok := s.get("ghost"); ok {
		t.Fatal("setTo created a phantom visit")
	}
}

func TestIOPStoreGetReturnsCopy(t *testing.T) {
	s := newIOPStore(new(nameTable), false)
	s.record("o", time.Second)
	vs, _ := s.get("o")
	vs[0].From = "mutated"
	vs2, _ := s.get("o")
	if vs2[0].From == "mutated" {
		t.Fatal("get exposed internal slice")
	}
}

func TestIOPStoreCounts(t *testing.T) {
	s := newIOPStore(new(nameTable), false)
	for i := 0; i < 5; i++ {
		s.record(moods.ObjectID(fmt.Sprintf("o%d", i%2)), time.Duration(i)*time.Second)
	}
	if s.len() != 5 {
		t.Errorf("len = %d", s.len())
	}
	if s.objects() != 2 {
		t.Errorf("objects = %d", s.objects())
	}
	if !s.has("o0") || s.has("zzz") {
		t.Error("has() wrong")
	}
}

func TestPickVisit(t *testing.T) {
	vs := []VisitRecord{
		{Arrived: 10 * time.Second},
		{Arrived: 20 * time.Second},
		{Arrived: 30 * time.Second},
	}
	if v, ok := pickVisit(vs, -1); !ok || v.Arrived != 30*time.Second {
		t.Errorf("pickVisit(-1) = %+v", v)
	}
	if v, ok := pickVisit(vs, 25*time.Second); !ok || v.Arrived != 20*time.Second {
		t.Errorf("pickVisit(25s) = %+v", v)
	}
	if v, ok := pickVisit(vs, 10*time.Second); ok {
		t.Errorf("pickVisit(10s) = %+v, want none (strictly before)", v)
	}
	if _, ok := pickVisit(nil, -1); ok {
		t.Error("pickVisit(empty) found something")
	}
}

// Property: random record/setFrom/setTo sequences never corrupt sort
// order and links attach to existing visits.
func TestQuickIOPStoreInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		s := newIOPStore(new(nameTable), false)
		recorded := 0
		for op := 0; op < 200; op++ {
			obj := moods.ObjectID(fmt.Sprintf("o%d", r.Intn(5)))
			at := time.Duration(r.Intn(1000)) * time.Millisecond
			switch r.Intn(3) {
			case 0:
				s.record(obj, at)
				recorded++
			case 1:
				s.setFrom(obj, "x", at)
			case 2:
				s.setTo(obj, "y", at)
			}
		}
		for i := 0; i < 5; i++ {
			obj := moods.ObjectID(fmt.Sprintf("o%d", i))
			vs, _ := s.get(obj)
			for j := 1; j < len(vs); j++ {
				if vs[j].Arrived < vs[j-1].Arrived {
					t.Fatalf("trial %d: visits of %s unsorted", trial, obj)
				}
			}
		}
	}
}

func TestTransitionStatsRecordAndSnapshot(t *testing.T) {
	ts := newTransitionStats()
	ts.record("b", 10*time.Minute)
	ts.record("b", 20*time.Minute)
	ts.record("c", 5*time.Minute)
	ts.record("c", -time.Minute) // negative dwell clamped to 0
	dsts, counts, dwells := ts.snapshot()
	if len(dsts) != 2 {
		t.Fatalf("dests = %v", dsts)
	}
	m := map[moods.NodeName]int{}
	dw := map[moods.NodeName]time.Duration{}
	for i, d := range dsts {
		m[d] = counts[i]
		dw[d] = dwells[i]
	}
	if m["b"] != 2 || m["c"] != 2 {
		t.Errorf("counts = %v", m)
	}
	if dw["b"] != 15*time.Minute {
		t.Errorf("mean dwell b = %v", dw["b"])
	}
	if dw["c"] != 150*time.Second {
		t.Errorf("mean dwell c = %v", dw["c"])
	}
}
