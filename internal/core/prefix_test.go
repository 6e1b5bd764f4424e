package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"peertrack/internal/ids"
	"peertrack/internal/moods"
)

// mustKey is the prefix key a binary literal such as "0110" names.
func mustKey(s string) ids.PrefixKey {
	var k ids.PrefixKey
	for _, c := range s {
		k = k.Child(int(c - '0'))
	}
	return k
}

func TestSchemePrefixLengths(t *testing.T) {
	cases := []struct {
		scheme Scheme
		nn     float64
		want   int
	}{
		// log2 512 = 9
		{Scheme1, 512, 9},
		// 9 + log2 9 = 12.17 -> 13
		{Scheme2, 512, 13},
		{Scheme3, 512, 18},
		// log2 64 = 6; 6 + log2 6 = 8.58 -> 9; 12
		{Scheme1, 64, 6},
		{Scheme2, 64, 9},
		{Scheme3, 64, 12},
	}
	for _, c := range cases {
		if got := c.scheme.PrefixLen(c.nn, 0); got != c.want {
			t.Errorf("%v at Nn=%v: Lp = %d, want %d", c.scheme, c.nn, got, c.want)
		}
	}
}

func TestSchemePrefixLenEdgeCases(t *testing.T) {
	cases := []struct {
		name       string
		nn         float64
		lmin       int
		s1, s2, s3 int
	}{
		// Below the formula's domain everything is the bootstrap floor.
		{"empty", 0, 3, 3, 3, 3},
		{"single node", 1, 3, 3, 3, 3},
		// Nn=2: log2 = 1, so Scheme2's log2 log2 term vanishes (it only
		// contributes once log2 Nn > 1) and Schemes 1 and 2 coincide.
		{"two nodes", 2, 0, 1, 1, 2},
		{"three nodes", 3, 0, 2, 3, 4},
		// Powers of two: the ceil is exact for Schemes 1 and 3.
		{"4", 4, 0, 2, 3, 4},
		{"8", 8, 0, 3, 5, 6},
		{"16", 16, 0, 4, 6, 8},
		{"256", 256, 0, 8, 11, 16},
		{"1024", 1024, 0, 10, 14, 20},
		{"65536", 65536, 0, 16, 20, 32},
		// Astronomical Nn: every scheme (100, 107, 200) exceeds the
		// longest prefix a group key holds and is capped there.
		{"2^100", math.Pow(2, 100), 0, ids.MaxKeyLen, ids.MaxKeyLen, ids.MaxKeyLen},
		// A negative floor is treated as 0, not propagated.
		{"negative lmin", 1, -5, 0, 0, 0},
	}
	for _, c := range cases {
		for s, want := range map[Scheme]int{Scheme1: c.s1, Scheme2: c.s2, Scheme3: c.s3} {
			if got := s.PrefixLen(c.nn, c.lmin); got != want {
				t.Errorf("%s: %v.PrefixLen(%v, %d) = %d, want %d", c.name, s, c.nn, c.lmin, got, want)
			}
		}
	}
}

func TestSchemeLMinFloor(t *testing.T) {
	if got := Scheme2.PrefixLen(2, 5); got != 5 {
		t.Errorf("Lp with LMin=5 at Nn=2: %d", got)
	}
	if got := Scheme2.PrefixLen(0, 4); got != 4 {
		t.Errorf("bootstrap Lp = %d, want LMin", got)
	}
}

func TestSchemeMonotoneInNn(t *testing.T) {
	for _, s := range []Scheme{Scheme1, Scheme2, Scheme3} {
		prev := 0
		for nn := 2.0; nn <= 1<<20; nn *= 2 {
			lp := s.PrefixLen(nn, 0)
			if lp < prev {
				t.Fatalf("%v: Lp decreased at Nn=%v", s, nn)
			}
			prev = lp
		}
	}
}

func TestSchemeCappedAtBits(t *testing.T) {
	if got := Scheme3.PrefixLen(math.Pow(2, 100), 0); got != ids.MaxKeyLen {
		t.Errorf("huge network Lp = %d, want %d", got, ids.MaxKeyLen)
	}
}

func TestPrefixManagerLifecycle(t *testing.T) {
	pm := NewPrefixManager(Scheme2, 3, 16)
	lp16 := pm.Lp()
	if lp16 < 3 {
		t.Fatalf("initial Lp = %d", lp16)
	}
	lo, hi := pm.LpRange()
	if lo != lp16 || hi != lp16 {
		t.Fatalf("initial range = [%d,%d]", lo, hi)
	}
	old, new := pm.SetNetworkSize(512)
	if old != lp16 || new <= old {
		t.Fatalf("grow: %d -> %d", old, new)
	}
	lo, hi = pm.LpRange()
	if lo != lp16 || hi != new {
		t.Fatalf("range after grow = [%d,%d]", lo, hi)
	}
	pm.SetNetworkSize(16)
	lo, hi = pm.LpRange()
	if lo != lp16 || hi != new {
		t.Fatalf("range after shrink = [%d,%d], history must persist", lo, hi)
	}
}

// TestGatewayIDMemoIsBounded: the memo answers what PrefixKey.GatewayID
// does; it holds at most maxGatewayMemo ids, past which a prefix is
// hashed each time; and it is emptied when the Lp range moves, up or
// down, but not by a size estimate that leaves it put.
func TestGatewayIDMemoIsBounded(t *testing.T) {
	pm := NewPrefixManager(Scheme2, 3, 16)
	prefix := func(i int) ids.PrefixKey { // distinct for i < 2^20
		var id ids.ID
		id[0], id[1], id[2] = byte(i>>12), byte(i>>4), byte(i<<4)
		return ids.KeyOf(id, 20)
	}
	for i := 0; i < maxGatewayMemo+100; i++ {
		if got, want := pm.GatewayID(prefix(i)), prefix(i).GatewayID(); got != want {
			t.Fatalf("GatewayID(%s) = %s, want %s", prefix(i), got.Short(), want.Short())
		}
	}
	if len(pm.gateways) != maxGatewayMemo {
		t.Errorf("memo holds %d ids after %d prefixes, want the cap %d", len(pm.gateways), maxGatewayMemo+100, maxGatewayMemo)
	}
	if got, want := pm.GatewayID(prefix(maxGatewayMemo+50)), prefix(maxGatewayMemo+50).GatewayID(); got != want {
		t.Errorf("past the cap GatewayID = %s, want %s", got.Short(), want.Short())
	}

	pm.SetNetworkSize(15) // Lp 6 still: the range stays put
	if len(pm.gateways) != maxGatewayMemo {
		t.Errorf("memo holds %d ids after an estimate that kept the range, want %d", len(pm.gateways), maxGatewayMemo)
	}
	pm.SetNetworkSize(512)
	if len(pm.gateways) != 0 {
		t.Errorf("memo holds %d ids after the range grew, want 0", len(pm.gateways))
	}
	pm.GatewayID(prefix(1))
	pm.SetNetworkSize(2) // Lp 3, below the range
	if len(pm.gateways) != 0 {
		t.Errorf("memo holds %d ids after the range widened down, want 0", len(pm.gateways))
	}
}

func TestPrefixManagerGroupOf(t *testing.T) {
	pm := NewPrefixManager(Scheme2, 3, 64)
	id := ids.HashString("x")
	g := pm.GroupOf(id)
	if g.Len() != pm.Lp() {
		t.Fatalf("group length %d != Lp %d", g.Len(), pm.Lp())
	}
	if !g.Matches(id) {
		t.Fatal("group does not match its member")
	}
}

func TestInvalidSchemeDefaultsTo2(t *testing.T) {
	pm := NewPrefixManager(Scheme(99), 3, 64)
	if pm.scheme != Scheme2 {
		t.Fatalf("scheme = %v", pm.scheme)
	}
}

func TestGatewayStoreFIFOAndDelegable(t *testing.T) {
	g := newGatewayStore(new(nameTable), false)
	pfx := mustKey("0101")
	for i := 0; i < 10; i++ {
		obj := moodsObjectID(i)
		g.upsert(pfx, IndexEntry{Object: obj, ID: ids.HashString(string(obj)), Indexed: simTime(i)})
	}
	// Ten records over a threshold of nine: the α = 0.35 earliest go.
	oldest := g.overflow(pfx, 9, 0.35)
	if len(oldest) != 3 {
		t.Fatalf("overflow returned %d", len(oldest))
	}
	for i, e := range oldest {
		if e.Object != moodsObjectID(i) {
			t.Fatalf("FIFO order wrong at %d: %s", i, e.Object)
		}
	}
	// Re-upserting an existing entry must not duplicate its FIFO slot.
	g.upsert(pfx, IndexEntry{Object: moodsObjectID(0), ID: ids.HashString(string(moodsObjectID(0)))})
	if got := g.overflow(pfx, 9, 1); len(got) != 10 {
		t.Fatalf("after re-upsert: %d entries", len(got))
	}
	// A bucket at its threshold, or an absent one, has nothing to shed.
	if got := g.overflow(pfx, 10, 1); got != nil {
		t.Fatalf("overflow at the threshold returned %d entries", len(got))
	}
	if got := g.overflow(mustKey("000"), 0, 1); got != nil {
		t.Fatalf("overflow of an absent bucket returned %d entries", len(got))
	}
}

func TestGatewayStoreTakeAndDrain(t *testing.T) {
	g := newGatewayStore(new(nameTable), false)
	pfx := mustKey("11")
	var keys []ids.ID
	for i := 0; i < 5; i++ {
		obj := moodsObjectID(i)
		id := ids.HashString(string(obj))
		keys = append(keys, id)
		g.upsert(pfx, IndexEntry{Object: obj, ID: id})
	}
	taken, delegated := g.take(pfx, keys[:2])
	if len(taken) != 2 || delegated {
		t.Fatalf("take = %d entries, delegated=%v", len(taken), delegated)
	}
	if g.totalEntries() != 3 {
		t.Fatalf("entries after take = %d", g.totalEntries())
	}
	drained, _ := g.drain(pfx)
	if len(drained) != 3 {
		t.Fatalf("drain = %d", len(drained))
	}
	if g.totalEntries() != 0 {
		t.Fatal("store not empty after drain")
	}
	if g.has(pfx) {
		t.Fatal("bucket survived drain")
	}
	// take/query/drain on absent buckets are safe no-ops.
	if e, _ := g.take(mustKey("000"), keys); e != nil {
		t.Fatal("take on absent bucket returned entries")
	}
	if e, _ := g.drain(mustKey("000")); e != nil {
		t.Fatal("drain on absent bucket returned entries")
	}
	// Re-levelling and evacuation migrate buckets in bucketKeys order: key
	// order, not the map's.
	for i := 15; i >= 0; i-- {
		g.upsert(mustKey(fmt.Sprintf("%05b", i)), IndexEntry{Object: moodsObjectID(i), ID: ids.HashString(string(moodsObjectID(i)))})
	}
	if got := g.bucketKeys(); len(got) != 16 || !slices.IsSorted(got) {
		t.Fatalf("bucketKeys = %v, want 16 keys in ascending order", got)
	}
}

func moodsObjectID(i int) moods.ObjectID {
	return moods.ObjectID(fmt.Sprintf("obj-%c", 'a'+i))
}

func simTime(i int) time.Duration {
	return time.Duration(i) * time.Second
}

func TestGatewayStoreAdvance(t *testing.T) {
	key := mustKey("01")
	id := ids.HashString("obj")
	arrival := func(node moods.NodeName, at int) IndexEntry {
		return IndexEntry{Object: "obj", ID: id, Latest: node, Arrived: simTime(at)}
	}
	g := newGatewayStore(new(nameTable), false)
	steps := []struct {
		name     string
		in       IndexEntry
		move     headMove
		sawAt    moods.NodeName // Latest of the head advance reports having seen
		headAt   moods.NodeName // Latest and Prev of the head afterwards
		headPrev moods.NodeName
	}{
		{"first sighting", arrival("a", 10), headFirst, "", "a", ""},
		{"re-sighting at the same node", arrival("a", 20), headSame, "a", "a", ""},
		{"move", arrival("b", 30), headMoved, "a", "b", "a"},
		{"re-sighting keeps Prev", arrival("b", 40), headSame, "b", "b", "a"},
		{"late", arrival("c", 35), headLate, "b", "b", "a"},
		{"equal timestamps advance", arrival("d", 40), headMoved, "b", "d", "b"},
	}
	for _, st := range steps {
		saw, move := g.advance(key, st.in, nil)
		if move != st.move || saw.Latest != st.sawAt {
			t.Fatalf("%s: advance = (head at %q, %v), want (%q, %v)", st.name, saw.Latest, move, st.sawAt, st.move)
		}
		head, ok := g.lookup(key, id)
		if !ok || head.Latest != st.headAt || head.Prev != st.headPrev {
			t.Fatalf("%s: head = %+v (found %v), want at %q after %q", st.name, head, ok, st.headAt, st.headPrev)
		}
	}
	if head, _ := g.lookup(key, id); head.Arrived != simTime(40) {
		t.Fatalf("head arrived %v, want %v", head.Arrived, simTime(40))
	}

	// An empty bucket falls back on the head the caller found elsewhere,
	// and a late arrival against it writes nothing.
	replica := arrival("r", 50)
	other := mustKey("10")
	if saw, move := g.advance(other, arrival("s", 45), &replica); move != headLate || saw.Latest != "r" || g.has(other) {
		t.Fatalf("late against fallback: (%q, %v), bucket created %v", saw.Latest, move, g.has(other))
	}
	if _, move := g.advance(other, arrival("s", 60), &replica); move != headMoved {
		t.Fatalf("move against fallback: %v", move)
	}
	if head, _ := g.lookup(other, id); head.Latest != "s" || head.Prev != "r" {
		t.Fatalf("head after fallback move = %+v", head)
	}
}

// TestGatewayStoreAdvanceKeepsSlots pins where advance writes among
// other records: an update in the record's own slot (FIFO position, which
// α-delegation evicts by, unchanged), a first sighting at the end, a
// late arrival nowhere; a record the bucket holds wins over the caller's
// fallback, and a first sighting creates the bucket.
func TestGatewayStoreAdvanceKeepsSlots(t *testing.T) {
	key := mustKey("01")
	rec := func(obj string, node moods.NodeName, at int) IndexEntry {
		return IndexEntry{Object: moods.ObjectID(obj), ID: ids.HashString(obj), Latest: node, Arrived: simTime(at)}
	}
	order := func(g *gatewayStore) []string {
		var out []string
		for _, e := range g.live(g.buckets[key], g.buckets[key].idx.Len()) {
			out = append(out, fmt.Sprintf("%s@%s<%s", e.Object, e.Latest, e.Prev))
		}
		return out
	}
	g := newGatewayStore(new(nameTable), false)
	if _, move := g.advance(key, rec("a", "n1", 10), nil); move != headFirst || !g.has(key) {
		t.Fatalf("first sighting into no bucket: %v, bucket created %v", move, g.has(key))
	}
	g.advance(key, rec("b", "n1", 10), nil)
	g.advance(key, rec("c", "n1", 10), nil)
	stale := rec("a", "far", 5) // a fallback older than the bucket's own record
	steps := []struct {
		name     string
		in       IndexEntry
		fallback *IndexEntry
		move     headMove
		want     []string
	}{
		{"move in place", rec("b", "n2", 20), nil, headMoved, []string{"a@n1<", "b@n2<n1", "c@n1<"}},
		{"re-sighting in place", rec("a", "n1", 20), nil, headSame, []string{"a@n1<", "b@n2<n1", "c@n1<"}},
		{"first sighting appends", rec("d", "n3", 20), nil, headFirst, []string{"a@n1<", "b@n2<n1", "c@n1<", "d@n3<"}},
		{"late writes nothing", rec("c", "n4", 5), nil, headLate, []string{"a@n1<", "b@n2<n1", "c@n1<", "d@n3<"}},
		{"the bucket's record beats the fallback", rec("a", "n5", 30), &stale, headMoved, []string{"a@n5<n1", "b@n2<n1", "c@n1<", "d@n3<"}},
		{"fallback for an object the bucket lacks", rec("e", "n6", 30), &IndexEntry{Latest: "r", Arrived: simTime(25)}, headMoved, []string{"a@n5<n1", "b@n2<n1", "c@n1<", "d@n3<", "e@n6<r"}},
	}
	for _, st := range steps {
		if _, move := g.advance(key, st.in, st.fallback); move != st.move {
			t.Fatalf("%s: advance = %v, want %v", st.name, move, st.move)
		}
		if got := order(g); !slices.Equal(got, st.want) {
			t.Fatalf("%s: bucket = %v, want %v", st.name, got, st.want)
		}
	}
}

// Racing arrivals of one object: whatever the interleaving, the head
// ends at the newest. A lookup and an upsert in separate lock holds let
// an older arrival overwrite a newer head.
func TestGatewayStoreAdvanceConcurrent(t *testing.T) {
	const writers = 64
	key := mustKey("1")
	id := ids.HashString("raced")
	for round := 0; round < 50; round++ {
		g := newGatewayStore(new(nameTable), false)
		var wg sync.WaitGroup
		for i := 1; i <= writers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				g.advance(key, IndexEntry{Object: "raced", ID: id, Latest: moods.NodeName(fmt.Sprintf("n%d", i)), Arrived: simTime(i)}, nil)
			}(i)
		}
		wg.Wait()
		if head, _ := g.lookup(key, id); head.Arrived != simTime(writers) || head.Latest != moods.NodeName(fmt.Sprintf("n%d", writers)) {
			t.Fatalf("round %d: head = %+v, want the arrival at %v", round, head, simTime(writers))
		}
	}
}

func TestGatewayStoreSetPrev(t *testing.T) {
	g := newGatewayStore(new(nameTable), false)
	key := mustKey("0")
	id := ids.HashString("obj")
	g.advance(key, IndexEntry{Object: "obj", ID: id, Latest: "a", Arrived: simTime(10)}, nil)
	if !g.setPrev(key, id, simTime(10), "z") {
		t.Fatal("setPrev refused on the head it walked from")
	}
	if head, _ := g.lookup(key, id); head.Prev != "z" || head.Latest != "a" {
		t.Fatalf("head = %+v, want Prev z", head)
	}
	// The head moves on; a stitch that walked from the old head must not
	// put its snapshot back.
	g.advance(key, IndexEntry{Object: "obj", ID: id, Latest: "b", Arrived: simTime(20)}, nil)
	if g.setPrev(key, id, simTime(10), "y") {
		t.Fatal("setPrev accepted after the head moved")
	}
	if head, _ := g.lookup(key, id); head.Latest != "b" || head.Prev != "a" || head.Arrived != simTime(20) {
		t.Fatalf("head = %+v, want b after a", head)
	}
	if g.setPrev(key, ids.HashString("absent"), simTime(10), "y") || g.setPrev(mustKey("1"), id, simTime(10), "y") {
		t.Fatal("setPrev accepted for a record the store does not hold")
	}
}
