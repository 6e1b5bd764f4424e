package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"peertrack/internal/chord"
	"peertrack/internal/ids"
	"peertrack/internal/moods"
	"peertrack/internal/replication"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	nw := buildNet(t, 12, Config{Mode: GroupIndexing, ReplicationFactor: 2, DelegationThreshold: 8})
	for i := 0; i < 100; i++ {
		obj := moods.ObjectID(fmt.Sprintf("snap-%d", i))
		nw.ScheduleObservation(moods.Observation{Object: obj, Node: nw.Peers()[i%12].Name(), At: time.Second})
		nw.ScheduleObservation(moods.Observation{Object: obj, Node: nw.Peers()[(i+3)%12].Name(), At: time.Minute})
	}
	nw.StartWindows(2 * time.Minute)
	nw.Run()

	p := nw.Peers()[4]
	var buf bytes.Buffer
	if err := p.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Wipe the peer's state, then restore.
	beforeVisits := p.LocalVisits()
	beforeIndexed := p.IndexedEntries()
	beforeReplica := p.replica.totalEntries()
	beforeInv := len(p.Inventory())
	p.repo.mu.Lock()
	p.repo.a, p.repo.n = nil, 0
	p.repo.mu.Unlock()
	p.gw.mu.Lock()
	p.gw.buckets = map[ids.PrefixKey]*bucket{}
	p.gw.mu.Unlock()
	p.replica.mu.Lock()
	p.replica.buckets = map[ids.PrefixKey]*bucket{}
	p.replica.mu.Unlock()

	if err := p.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if p.LocalVisits() != beforeVisits {
		t.Errorf("visits = %d, want %d", p.LocalVisits(), beforeVisits)
	}
	if p.IndexedEntries() != beforeIndexed {
		t.Errorf("indexed = %d, want %d", p.IndexedEntries(), beforeIndexed)
	}
	if p.replica.totalEntries() != beforeReplica {
		t.Errorf("replica = %d, want %d", p.replica.totalEntries(), beforeReplica)
	}
	if got := len(p.Inventory()); got != beforeInv {
		t.Errorf("inventory = %d, want %d", got, beforeInv)
	}

	// Queries spanning the restored node still work network-wide.
	for i := 0; i < 100; i += 10 {
		obj := moods.ObjectID(fmt.Sprintf("snap-%d", i))
		res, err := nw.Peers()[0].FullTrace(obj)
		if err != nil {
			t.Fatalf("trace %s after restore: %v", obj, err)
		}
		if !res.Path.Equal(nw.Oracle.FullTrace(obj)) {
			t.Fatalf("trace %s diverged after restore", obj)
		}
	}
}

func TestSnapshotPreservesFIFOOrder(t *testing.T) {
	nw := buildNet(t, 8, Config{Mode: GroupIndexing})
	p := nw.Peers()[0]
	pfx := nw.PM.GroupOf(moods.ObjectID("x").Hash())
	for i := 0; i < 10; i++ {
		obj := moods.ObjectID(fmt.Sprintf("fifo-%d", i))
		p.gw.upsert(pfx, IndexEntry{Object: obj, ID: obj.Hash(), Indexed: time.Duration(i)})
	}
	for i := 0; i < 16; i++ {
		obj := moods.ObjectID(fmt.Sprintf("spread-%d", i))
		p.gw.upsert(mustKey(fmt.Sprintf("%05b", i)), IndexEntry{Object: obj, ID: obj.Hash()})
	}
	var buf bytes.Buffer
	if err := p.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// The buckets are written in key order, not the map's.
	var snap peerSnapshot
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, b := range snap.Buckets {
		keys = append(keys, b.Key)
	}
	if len(keys) < 16 || !slices.IsSorted(keys) {
		t.Fatalf("snapshot buckets %v, want at least 16 in key order", keys)
	}
	p.gw.mu.Lock()
	p.gw.buckets = map[ids.PrefixKey]*bucket{}
	p.gw.mu.Unlock()
	if err := p.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	oldest := p.gw.overflow(pfx, 0, 0.35)
	if len(oldest) != 3 {
		t.Fatalf("overflow = %d", len(oldest))
	}
	for i, e := range oldest {
		if e.Object != moods.ObjectID(fmt.Sprintf("fifo-%d", i)) {
			t.Fatalf("FIFO order lost at %d: %s", i, e.Object)
		}
	}
}

func TestRestoreRejectsWrongNode(t *testing.T) {
	nw := buildNet(t, 4, Config{})
	var buf bytes.Buffer
	if err := nw.Peers()[0].Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := nw.Peers()[1].Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("restore accepted a foreign snapshot")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	nw := buildNet(t, 4, Config{})
	if err := nw.Peers()[0].Restore(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("restore accepted garbage")
	}
}

// TestRestoreRejectsCorruptTransitionModel: a file whose transition
// columns disagree in length, or that holds a count of zero, is refused —
// not indexed out of range by Restore, nor divided by at the next
// prediction.
func TestRestoreRejectsCorruptTransitionModel(t *testing.T) {
	nw := buildNet(t, 4, Config{})
	p := nw.Peers()[0]
	cases := []struct {
		name   string
		counts []int
	}{
		{"two destinations, one count", []int{1}},
		{"a count of zero", []int{1, 0}},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		snap := peerSnapshot{
			Version:    snapshotVersion,
			Name:       p.Name(),
			TransDst:   []moods.NodeName{"a", "b"},
			TransCount: c.counts,
			TransDwell: []time.Duration{time.Minute, time.Minute},
		}
		if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
			t.Fatal(err)
		}
		if err := p.Restore(&buf); err == nil {
			t.Errorf("%s: restore accepted the snapshot", c.name)
		}
	}
}

// TestRestoreRejectsCorruptBucketKey: a bucket key must be the string
// form of a prefix key. One longer than a key holds, or one with a digit
// that is not binary, refuses the snapshot with an error naming it,
// before any state is replaced — not a panic, and not a bucket dropped
// in silence.
func TestRestoreRejectsCorruptBucketKey(t *testing.T) {
	nw := buildNet(t, 4, Config{})
	p := nw.Peers()[0]
	p.gw.upsert(mustKey("010"), IndexEntry{Object: "kept", ID: moods.ObjectID("kept").Hash()})
	before := p.DumpIndex()
	for _, c := range []struct {
		name              string
		buckets, replicas []bucketSnapshot
		key               string
	}{
		{"60 zeros", []bucketSnapshot{{Key: "01"}, {Key: strings.Repeat("0", 60)}}, nil, strings.Repeat("0", 60)},
		{"a digit that is not binary", nil, []bucketSnapshot{{Key: "01x", Owner: "n1", Version: 1}}, "01x"},
	} {
		var buf bytes.Buffer
		snap := peerSnapshot{Version: snapshotVersion, Name: p.Name(), Buckets: c.buckets, Replicas: c.replicas}
		if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
			t.Fatal(err)
		}
		err := p.Restore(&buf)
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(c.key)) {
			t.Errorf("%s: restore returned %v, want an error naming %q", c.name, err, c.key)
		}
	}
	if after := p.DumpIndex(); !reflect.DeepEqual(after, before) {
		t.Errorf("a refused restore replaced the index: %v, was %v", after, before)
	}
}

func TestSnapshotPreservesTransitionModel(t *testing.T) {
	nw := buildNet(t, 10, Config{Mode: GroupIndexing})
	for i := 0; i < 6; i++ {
		obj := moods.ObjectID(fmt.Sprintf("tm-%d", i))
		moveObject(t, nw, obj, []int{2, 5}, time.Second, 20*time.Minute)
	}
	nw.StartWindows(time.Hour)
	nw.Run()
	p := nw.Peers()[2]

	var buf bytes.Buffer
	if err := p.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	p.trans.mu.Lock()
	p.trans.byDst = map[moods.NodeName]*edgeStat{}
	p.trans.mu.Unlock()
	if err := p.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	dests, counts, dwells := p.trans.snapshot()
	if len(dests) != 1 || dests[0] != nw.Peers()[5].Name() || counts[0] != 6 {
		t.Fatalf("departures after restore = %v %v", dests, counts)
	}
	if dwells[0] < 19*time.Minute || dwells[0] > 21*time.Minute {
		t.Fatalf("mean dwell after restore = %v", dwells[0])
	}
}

func TestSnapshotPreservesContainment(t *testing.T) {
	nw := buildNet(t, 8, Config{Mode: GroupIndexing})
	parent := moods.ObjectID("snap-pallet")
	child := moods.ObjectID("snap-box")
	if err := nw.Peers()[0].Pack(parent, []moods.ObjectID{child}, time.Minute); err != nil {
		t.Fatal(err)
	}
	// Find the peer holding the containment record.
	var holder *Peer
	for _, p := range nw.Peers() {
		p.contain.mu.RLock()
		if len(p.contain.byChild[child]) > 0 {
			holder = p
		}
		p.contain.mu.RUnlock()
	}
	if holder == nil {
		t.Fatal("no peer holds the containment record")
	}
	var buf bytes.Buffer
	if err := holder.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	holder.contain.mu.Lock()
	holder.contain.byChild = map[moods.ObjectID][]ContainmentRecord{}
	holder.contain.mu.Unlock()
	if err := holder.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	recs, _, err := nw.Peers()[3].Containments(child)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Parent != parent {
		t.Fatalf("containments after restore = %+v", recs)
	}
}

// TestRestoreReRegistersReplicaBuckets: a mirror that restarts from its
// snapshot must come back knowing whose copies it holds and at which
// version — otherwise the copies are data the engine has never heard
// of: the owner's probe re-ships every bucket, a dead owner's bucket is
// never promoted, an abandoned one never collected.
func TestRestoreReRegistersReplicaBuckets(t *testing.T) {
	nw := buildNet(t, 12, Config{Mode: GroupIndexing, ReplicationFactor: 2})
	// One observer only, so that no other peer has a repository to
	// mirror: the snapshot does not cover mirrored repositories, and
	// their re-push after a restart is not what is under test.
	observer := nw.Peers()[0]
	for i := 0; i < 60; i++ {
		nw.ScheduleObservation(moods.Observation{
			Object: moods.ObjectID(fmt.Sprintf("held-%d", i)), Node: observer.Name(), At: time.Second,
		})
	}
	nw.StartWindows(2 * time.Second)
	nw.Run()

	// A gateway other than the observer, and its one mirror.
	var owner, mirror *Peer
	for _, p := range nw.Peers() {
		if p != observer && p.IndexedEntries() > 0 {
			owner = p
			mirror, _ = nw.PeerByName(moods.NodeName(p.mirrorSet()[0]))
			break
		}
	}
	if owner == nil || mirror == observer || mirror.replica.totalEntries() == 0 {
		t.Fatal("no gateway with a mirror other than the observer; pick another seed")
	}
	var buf bytes.Buffer
	if err := mirror.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Restart: everything but the address and the ring position is
	// gone, then the snapshot is loaded.
	names := new(nameTable)
	mirror.gw, mirror.replica = newGatewayStore(names), newGatewayStore(names)
	mirror.repl, mirror.repoReplica = replication.NewEngine(), &repoReplicaStore{}
	if err := mirror.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	// The owner's probes at the persisted versions answer Current.
	repairs := nw.Telemetry.Counter("core.replication.repair_pushes")
	probes := nw.Telemetry.Counter("core.replication.probes")
	r0, p0 := repairs.Value(), probes.Value()
	owner.SyncOwnedReplicas()
	if probes.Value() == p0 {
		t.Fatal("owner probed nothing")
	}
	if got := repairs.Value() - r0; got != 0 {
		t.Fatalf("owner re-shipped %d units to a mirror restored from its snapshot, want 0", got)
	}

	// The owner dies and the ring hands its range to the mirror: the
	// verdict finds the restored buckets and promotes them.
	want := owner.IndexedEntries()
	nw.Transport.Kill(owner.Addr())
	for r := 0; r < 8; r++ {
		for _, p := range nw.Peers() {
			if p != owner {
				p.Node().(*chord.Node).CheckPredecessor()
				p.Node().(*chord.Node).Stabilize()
			}
		}
	}
	before := mirror.IndexedEntries()
	mirror.onGossipDead(owner.Node().Self())
	if got := mirror.IndexedEntries() - before; got != want {
		t.Fatalf("dead verdict promoted %d restored records, want %d", got, want)
	}
}
