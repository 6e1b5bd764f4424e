package moods

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

func obs(o string, n string, at time.Duration) Observation {
	return Observation{Object: ObjectID(o), Node: NodeName(n), At: at}
}

func TestLocateBeforeFirstObservation(t *testing.T) {
	h := NewHistoryStore()
	h.Record(obs("o1", "n1", 10*time.Second))
	loc, err := h.Locate("o1", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if loc != Nowhere {
		t.Fatalf("L before first observation = %q, want Nowhere", loc)
	}
}

func TestLocateUnknownObject(t *testing.T) {
	h := NewHistoryStore()
	loc, err := h.Locate("ghost", time.Hour)
	if err != nil || loc != Nowhere {
		t.Fatalf("L(ghost) = %q, %v", loc, err)
	}
}

func TestLocateAtAndBetweenObservations(t *testing.T) {
	h := NewHistoryStore()
	h.Record(obs("o1", "n1", 10*time.Second))
	h.Record(obs("o1", "n2", 20*time.Second))
	h.Record(obs("o1", "n3", 30*time.Second))
	cases := []struct {
		t    time.Duration
		want NodeName
	}{
		{10 * time.Second, "n1"}, // exactly at capture
		{15 * time.Second, "n1"}, // between captures: still at previous
		{20 * time.Second, "n2"},
		{29 * time.Second, "n2"},
		{30 * time.Second, "n3"},
		{time.Hour, "n3"}, // far future: last known
	}
	for _, c := range cases {
		got, err := h.Locate("o1", c.t)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("L(o1, %v) = %q, want %q", c.t, got, c.want)
		}
	}
}

func TestOutOfOrderRecording(t *testing.T) {
	h := NewHistoryStore()
	h.Record(obs("o1", "n3", 30*time.Second))
	h.Record(obs("o1", "n1", 10*time.Second))
	h.Record(obs("o1", "n2", 20*time.Second))
	got, _ := h.Locate("o1", 25*time.Second)
	if got != "n2" {
		t.Fatalf("L = %q after out-of-order inserts", got)
	}
	// Equal capture times keep recording order, whether the observation
	// is appended in order (n4) or inserted behind later ones (n5).
	h.Record(obs("o1", "n4", 30*time.Second))
	h.Record(obs("o1", "n5", 10*time.Second))
	full := h.FullTrace("o1")
	want := []NodeName{"n1", "n5", "n2", "n3", "n4"}
	if len(full) != len(want) || h.Len() != len(want) {
		t.Fatalf("trace = %v, Len = %d, want %v", full.Nodes(), h.Len(), want)
	}
	for i, n := range full.Nodes() {
		if n != want[i] {
			t.Fatalf("trace order = %v, want %v", full.Nodes(), want)
		}
	}
}

func TestTraceWindow(t *testing.T) {
	h := NewHistoryStore()
	for i, n := range []string{"a", "b", "c", "d", "e"} {
		h.Record(obs("o1", n, time.Duration(i+1)*10*time.Second))
	}
	// Window [25s, 45s]: at t1 the object sits at b (arrived 20s); then
	// c (30s) and d (40s) fall inside.
	p, err := h.Trace("o1", 25*time.Second, 45*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeName{"b", "c", "d"}
	got := p.Nodes()
	if len(got) != len(want) {
		t.Fatalf("trace = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trace = %v, want %v", got, want)
		}
	}
}

func TestTraceSwappedBounds(t *testing.T) {
	h := NewHistoryStore()
	h.Record(obs("o1", "a", 10*time.Second))
	h.Record(obs("o1", "b", 20*time.Second))
	p1, _ := h.Trace("o1", 5*time.Second, 25*time.Second)
	p2, _ := h.Trace("o1", 25*time.Second, 5*time.Second)
	if !p1.Equal(p2) {
		t.Fatal("swapped bounds changed the trace")
	}
}

func TestTraceEmptyWindow(t *testing.T) {
	h := NewHistoryStore()
	h.Record(obs("o1", "a", 100*time.Second))
	p, _ := h.Trace("o1", 0, 50*time.Second)
	if len(p) != 0 {
		t.Fatalf("trace before any observation = %v", p)
	}
}

func TestTraceLifetime(t *testing.T) {
	h := NewHistoryStore()
	nodes := []string{"a", "b", "c"}
	for i, n := range nodes {
		h.Record(obs("o1", n, time.Duration(i)*time.Minute))
	}
	p, _ := h.Trace("o1", 0, time.Hour)
	if len(p) != 3 {
		t.Fatalf("lifetime trace = %v", p.Nodes())
	}
}

func TestCountsAndMultipleObjects(t *testing.T) {
	h := NewHistoryStore()
	for i := 0; i < 10; i++ {
		h.Record(obs(fmt.Sprintf("o%d", i%3), "n", time.Duration(i)*time.Second))
	}
	if h.Len() != 10 {
		t.Errorf("Len = %d", h.Len())
	}
	if h.Objects() != 3 {
		t.Errorf("Objects = %d", h.Objects())
	}
}

func TestObjectIDHashStable(t *testing.T) {
	a := ObjectID("urn:epc:id:sgtin:0614141.812345.1").Hash()
	b := ObjectID("urn:epc:id:sgtin:0614141.812345.1").Hash()
	if a != b {
		t.Fatal("hash unstable")
	}
}

func TestHistoryReturnsCopy(t *testing.T) {
	h := NewHistoryStore()
	h.Record(obs("o1", "a", time.Second))
	path := h.FullTrace("o1")
	path[0].Node = "mutated"
	if got, _ := h.Locate("o1", time.Minute); got != "a" {
		t.Fatal("FullTrace exposed internal state")
	}
}

// Property: L(o, t) equals the node of the last observation at or
// before t under random insertion orders.
func TestQuickLocateMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		h := NewHistoryStore()
		var all []Observation
		for i := 0; i < 30; i++ {
			o := Observation{
				Object: "obj",
				Node:   NodeName(fmt.Sprintf("n%d", r.Intn(10))),
				At:     time.Duration(r.Intn(1000)) * time.Millisecond,
			}
			all = append(all, o)
			h.Record(o)
		}
		for q := 0; q < 20; q++ {
			at := time.Duration(r.Intn(1200)) * time.Millisecond
			// Brute force: latest observation with At <= at; on equal
			// timestamps the store keeps insertion order stable, so take
			// the last inserted among the max-At group.
			var best *Observation
			for i := range all {
				o := &all[i]
				if o.At <= at && (best == nil || o.At >= best.At) {
					best = o
				}
			}
			want := Nowhere
			if best != nil {
				want = best.Node
			}
			got, _ := h.Locate("obj", at)
			if got != want {
				t.Fatalf("trial %d: L(obj, %v) = %q, want %q", trial, at, got, want)
			}
		}
	}
}
