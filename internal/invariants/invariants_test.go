package invariants

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"peertrack/internal/chord"
	"peertrack/internal/core"
	"peertrack/internal/ids"
	"peertrack/internal/moods"
	"peertrack/internal/transport"
)

// buildTracked constructs a converged network and drives a few object
// trajectories through it via the simulation kernel.
func buildTracked(t *testing.T, nodes int, peerCfg core.Config) *core.Network {
	t.Helper()
	nw, err := core.BuildNetwork(core.NetworkConfig{Nodes: nodes, Seed: 7, Peer: peerCfg})
	if err != nil {
		t.Fatal(err)
	}
	trajectories := map[moods.ObjectID][]int{
		"urn:epc:obj-a": {0, 3, 5, 1},
		"urn:epc:obj-b": {2, 4},
		"urn:epc:obj-c": {5, 0, 2, 6, 3},
		"urn:epc:obj-d": {1},
	}
	for obj, trace := range trajectories {
		for i, idx := range trace {
			obs := moods.Observation{
				Object: obj,
				Node:   nw.Peers()[idx%nodes].Name(),
				At:     time.Duration(i+1) * 10 * time.Second,
			}
			if err := nw.ScheduleObservation(obs); err != nil {
				t.Fatal(err)
			}
		}
	}
	nw.StartWindows(2 * time.Minute)
	nw.Run()
	return nw
}

func strict() Options { return Options{Exact: true} }

// check runs the catalog over a simulated network twice, against its
// oracle and against nothing, and wants one report: while no repository
// has left, the stored visits are the oracle's history.
func check(t *testing.T, nw *core.Network, opts Options) []Violation {
	t.Helper()
	vs := Check(nw.Peers(), nw.Oracle, opts)
	if blind := Check(nw.Peers(), nil, opts); !reflect.DeepEqual(blind, vs) {
		t.Errorf("without an oracle the report is %v, with it %v", blind, vs)
	}
	return vs
}

// provoked collects every invariant name a planted-fault case of this
// package has been shown; TestMain holds DESIGN.md §7 to them.
var provoked = map[string]bool{}

func hasInvariant(vs []Violation, name string) bool {
	found := false
	for _, v := range vs {
		provoked[v.Invariant] = true
		found = found || v.Invariant == name
	}
	return found
}

func TestMain(m *testing.M) {
	code := m.Run()
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	names := make([]string, 0, len(provoked))
	for name := range provoked {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !bytes.Contains(design, []byte("`"+name+"`")) {
			fmt.Fprintf(os.Stderr, "DESIGN.md's catalog table (§7) does not list %q, which a test of this package provokes\n", name)
			code = 1
		}
	}
	os.Exit(code)
}

func TestCleanNetworkHasNoViolations(t *testing.T) {
	for _, mode := range []core.Mode{core.GroupIndexing, core.IndividualIndexing} {
		nw := buildTracked(t, 8, core.Config{Mode: mode})
		if vs := check(t, nw, strict()); len(vs) != 0 {
			t.Errorf("mode %v: unexpected violations: %v", mode, vs)
		}
	}
}

func TestCleanNetworkAfterGrowShrink(t *testing.T) {
	nw := buildTracked(t, 8, core.Config{})
	if _, _, err := nw.Grow(5); err != nil {
		t.Fatal(err)
	}
	if vs := check(t, nw, strict()); len(vs) != 0 {
		t.Errorf("after grow: %v", vs)
	}
	if _, _, err := nw.Shrink(3); err != nil {
		t.Fatal(err)
	}
	// Departed nodes take their repositories with them; objects that
	// visited them can no longer prove an exact chain, so only the
	// structural profile applies network-wide.
	if vs := Check(nw.Peers(), nw.Oracle, Options{}); len(vs) != 0 {
		t.Errorf("after shrink: %v", vs)
	}
}

func TestDetectsPlantedDuplicate(t *testing.T) {
	nw := buildTracked(t, 8, core.Config{})
	obj := moods.ObjectID("urn:epc:obj-a")
	id := obj.Hash()
	// Plant a second copy of obj-a's record in some other peer's bucket
	// at the current prefix level.
	pfx := ids.KeyOf(id, nw.Peers()[0].Prefixes().Lp())
	var victim *core.Peer
	for _, p := range nw.Peers() {
		if !p.Node().Owns(pfx.GatewayID()) {
			victim = p
			break
		}
	}
	victim.InjectIndexEntry(pfx, core.IndexEntry{
		Object: obj, ID: id, Latest: victim.Name(), Arrived: time.Hour,
	})
	vs := check(t, nw, strict())
	if !hasInvariant(vs, "index-unique") {
		t.Errorf("planted duplicate not reported as index-unique: %v", vs)
	}
	if !hasInvariant(vs, "gateway-placement") {
		t.Errorf("misplaced bucket not reported as gateway-placement: %v", vs)
	}
}

func TestDetectsRemovedRecord(t *testing.T) {
	nw := buildTracked(t, 8, core.Config{})
	obj := moods.ObjectID("urn:epc:obj-b")
	id := obj.Hash()
	pfx := ids.KeyOf(id, nw.Peers()[0].Prefixes().Lp())
	for _, p := range nw.Peers() {
		p.RemoveIndexEntry(pfx, id)
	}
	vs := check(t, nw, strict())
	if !hasInvariant(vs, "index-missing") {
		t.Errorf("removed record not reported as index-missing: %v", vs)
	}
}

func TestDetectsCorruptHead(t *testing.T) {
	nw := buildTracked(t, 8, core.Config{})
	obj := moods.ObjectID("urn:epc:obj-c")
	id := obj.Hash()
	pfx := ids.KeyOf(id, nw.Peers()[0].Prefixes().Lp())
	var gw *core.Peer
	for _, p := range nw.Peers() {
		if p.Node().Owns(pfx.GatewayID()) {
			gw = p
			break
		}
	}
	// Overwrite the record with a head pointing at the wrong node/time.
	gw.InjectIndexEntry(pfx, core.IndexEntry{
		Object: obj, ID: id, Latest: nw.Peers()[7].Name(), Arrived: time.Hour,
	})
	vs := check(t, nw, strict())
	if !hasInvariant(vs, "index-head") {
		t.Errorf("corrupt head not reported as index-head: %v", vs)
	}
}

func TestDetectsForeignPrefixEntry(t *testing.T) {
	nw := buildTracked(t, 8, core.Config{})
	// Fabricate a record whose id does not extend the bucket prefix.
	obj := moods.ObjectID("urn:epc:obj-a")
	id := obj.Hash()
	pfx := ids.KeyOf(id, nw.Peers()[0].Prefixes().Lp())
	other := moods.ObjectID("urn:epc:obj-b")
	var gw *core.Peer
	for _, p := range nw.Peers() {
		if p.Node().Owns(pfx.GatewayID()) {
			gw = p
			break
		}
	}
	gw.InjectIndexEntry(pfx, core.IndexEntry{
		Object: other, ID: other.Hash(), Latest: gw.Name(), Arrived: time.Hour,
	})
	vs := check(t, nw, Options{})
	if ids.KeyOf(other.Hash(), nw.Peers()[0].Prefixes().Lp()) != pfx {
		if !hasInvariant(vs, "triangle-prefix") {
			t.Errorf("foreign-prefix entry not reported: %v", vs)
		}
	}
	// Either way the duplicate must surface.
	if !hasInvariant(vs, "index-unique") && !hasInvariant(vs, "index-head") {
		t.Errorf("planted record produced no violation at all: %v", vs)
	}
}

func TestCheckStats(t *testing.T) {
	good := transport.Snapshot{Calls: 10, Messages: 17, Failures: 3, Drops: 2, Blocked: 1}
	if vs := CheckStats(good); len(vs) != 0 {
		t.Errorf("conserving snapshot flagged: %v", vs)
	}
	bad := transport.Snapshot{Calls: 10, Messages: 20, Failures: 0, Drops: 2, Blocked: 1}
	vs := CheckStats(bad)
	if !hasInvariant(vs, "stats-conservation") {
		t.Errorf("non-conserving snapshot not flagged: %v", vs)
	}
	if len(vs) > 0 && !strings.Contains(vs[0].Detail, "calls=10") {
		t.Errorf("detail missing counters: %v", vs[0])
	}
}

func TestCheckRing(t *testing.T) {
	mem := transport.NewMemory(1)
	addrs := make([]transport.Addr, 6)
	for i := range addrs {
		addrs[i] = transport.Addr(core.NodeNameFor(i))
	}
	nodes, err := chord.BuildStaticRing(mem, addrs, chord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if vs := CheckRing(nodes); len(vs) != 0 {
		t.Fatalf("static ring not clean: %v", vs)
	}

	// A voluntary departure relinks the neighbours synchronously, so the
	// live projection of the ring stays consistent with no stabilization
	// at all — a property worth pinning down.
	if err := nodes[2].Leave(); err != nil {
		t.Fatal(err)
	}
	if vs := CheckRing(nodes); len(vs) != 0 {
		t.Errorf("clean leave broke ring invariants: %v", vs)
	}

	// Fresh unwired nodes are each their own single-node ring; as a set
	// they are maximally unconverged and every one must be flagged.
	mem2 := transport.NewMemory(2)
	var loose []*chord.Node
	for i := 0; i < 3; i++ {
		n, err := chord.New(mem2, transport.Addr(core.NodeNameFor(i)), chord.Config{})
		if err != nil {
			t.Fatal(err)
		}
		loose = append(loose, n)
	}
	vs := CheckRing(loose)
	if len(vs) == 0 {
		t.Fatal("unwired node set not flagged")
	}
	if !hasInvariant(vs, "ring-successor") && !hasInvariant(vs, "ring-succ-len") {
		t.Errorf("expected successor violations, got %v", vs)
	}
	chord.WireStaticRing(loose)
	if vs := CheckRing(loose); len(vs) != 0 {
		t.Errorf("statically wired ring not clean: %v", vs)
	}
}

// TestReachabilityIsJudgedPerView: an eight-peer network (Lp 5) with
// one peer moved to believe it half as large (Lp 3, history [3, 5]) and
// another twice as large (Lp 6, history [5, 6]). Each indexes an object
// at its own Lp, and each misses the other's record: the peer moved down
// stops descending at level 5, short of the level-6 record, and the
// peer moved up stops ascending at level 5, short of the level-3 one.
// Each miss is reported against the view that misses it, named by its
// first peer. Once every history covers [3, 6], every view reaches both
// records.
func TestReachabilityIsJudgedPerView(t *testing.T) {
	nw, err := core.BuildNetwork(core.NetworkConfig{Nodes: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	down, up := nw.Peers()[0], nw.Peers()[1]
	if old, lp := down.Prefixes().SetNetworkSize(4); old != 5 || lp != 3 {
		t.Fatalf("moving one peer to size 4 took Lp from %d to %d, want 5 to 3", old, lp)
	}
	if old, lp := up.Prefixes().SetNetworkSize(16); old != 5 || lp != 6 {
		t.Fatalf("moving one peer to size 16 took Lp from %d to %d, want 5 to 6", old, lp)
	}
	observe := func(p *core.Peer, obj moods.ObjectID) {
		if err := p.Observe(moods.Observation{Object: obj, At: time.Second}); err != nil {
			t.Fatal(err)
		}
		if err := p.FlushWindow(); err != nil {
			t.Fatal(err)
		}
	}
	observe(down, "urn:epc:view-0")
	observe(up, "urn:epc:view-1")
	vs := Check(nw.Peers(), nil, strict())
	missed := func(by *core.Peer, obj string) string {
		return fmt.Sprintf("index-missing node=%s obj=%s: no index record reachable via the IV-A3 search", by.Name(), obj)
	}
	if len(vs) != 2 || vs[0].String() != missed(up, "urn:epc:view-0") || vs[1].String() != missed(down, "urn:epc:view-1") {
		t.Errorf("want each peer's record missed from the other's view, got %v", vs)
	}
	for _, p := range nw.Peers() {
		p.Prefixes().SetNetworkSize(4)
		p.Prefixes().SetNetworkSize(16)
	}
	if vs := Check(nw.Peers(), nil, strict()); len(vs) != 0 {
		t.Errorf("levels 3 to 6 in every history: %v", vs)
	}
}
