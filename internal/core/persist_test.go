package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"
	"testing"
	"time"

	"peertrack/internal/ids"
	"peertrack/internal/moods"
	"peertrack/internal/transport"
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
	wipe(p)

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
	pfx := ids.KeyOf(moods.ObjectID("x").Hash(), nw.lp())
	for i := 0; i < 10; i++ {
		obj := moods.ObjectID(fmt.Sprintf("fifo-%d", i))
		p.gw.upsert(pfx, IndexEntry{Object: obj, ID: obj.Hash(), Indexed: time.Duration(i)})
	}
	var buf bytes.Buffer
	if err := p.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	wipe(p)
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

// snapshotOf is p's snapshot.
func snapshotOf(t testing.TB, p *Peer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// snapshotFile lays units out as p's snapshot file.
func snapshotFile(p *Peer, units ...transport.Wire) []byte {
	b := []byte(transport.Preface)
	for _, u := range units {
		b = appendUnit(b, string(p.Name()), u)
	}
	return b
}

// assertRefused restores each file into p and wants every one refused
// with an error and p's state — its snapshot — unchanged.
func assertRefused(t *testing.T, p *Peer, files map[string][]byte) {
	t.Helper()
	before := snapshotOf(t, p)
	for name, file := range files {
		if err := p.Restore(bytes.NewReader(file)); err == nil {
			t.Errorf("%s: restore accepted the file", name)
		}
	}
	if !bytes.Equal(snapshotOf(t, p), before) {
		t.Error("a refused restore replaced the peer's state")
	}
}

// TestRestoreRejectsCorruptTransitionModel: a file whose transition
// columns disagree in length, or that holds a count of zero, is refused —
// not indexed out of range by Restore, nor divided by at the next
// prediction.
func TestRestoreRejectsCorruptTransitionModel(t *testing.T) {
	nw := buildNet(t, 4, Config{})
	p := nw.Peers()[0]
	p.trans.record("kept", time.Minute)
	dests, dwells := []moods.NodeName{"a", "b"}, []time.Duration{time.Minute, time.Minute}
	assertRefused(t, p, map[string][]byte{
		"two destinations, one count": snapshotFile(p, transModelResp{Dests: dests, Counts: []int{1}, MeanDwell: dwells}),
		"a count of zero":             snapshotFile(p, transModelResp{Dests: dests, Counts: []int{1, 0}, MeanDwell: dwells}),
	})
}

// TestRestoreRejectsCorruptBucketKey: a bucket key must be in its one
// form. One with a bit set past its length refuses the snapshot with an
// error, before any state is replaced — not a panic, and not a bucket
// dropped in silence.
func TestRestoreRejectsCorruptBucketKey(t *testing.T) {
	nw := buildNet(t, 4, Config{})
	p := nw.Peers()[0]
	p.gw.upsert(mustKey("010"), IndexEntry{Object: "kept", ID: moods.ObjectID("kept").Hash()})
	pastLen := mustKey("01") | 1<<60 // bit 3 set, length 2
	good := replicatePutReq{Key: mustKey("01"), Owner: p.Addr(), Full: true}
	bad := replicatePutReq{Key: pastLen, Owner: "n1", Version: 1, Full: true}
	assertRefused(t, p, map[string][]byte{
		"a held bucket": snapshotFile(p, good, bad, transModelResp{}),
		"an own bucket": snapshotFile(p, replicatePutReq{Key: pastLen, Owner: p.Addr(), Full: true}, transModelResp{}),
	})
}

// TestRestoreRejectsCutFile: a snapshot cut at any byte is refused, also
// where the cut falls between two units.
func TestRestoreRejectsCutFile(t *testing.T) {
	nw := richNet(t)
	p := nw.Peers()[3]
	file := snapshotOf(t, p)
	cuts := make(map[string][]byte, len(file))
	for n := range file {
		cuts[fmt.Sprintf("cut at %d of %d", n, len(file))] = file[:n]
	}
	assertRefused(t, p, cuts)
}

// TestRestoreRejectsGobSnapshot: the gob files earlier builds wrote
// (version 2) are refused with an error that names their version.
func TestRestoreRejectsGobSnapshot(t *testing.T) {
	nw := buildNet(t, 4, Config{})
	p := nw.Peers()[0]
	var buf bytes.Buffer
	v2 := struct {
		Version int
		Name    moods.NodeName
	}{2, p.Name()}
	if err := gob.NewEncoder(&buf).Encode(&v2); err != nil {
		t.Fatal(err)
	}
	assertRefused(t, p, map[string][]byte{"version 2": buf.Bytes()})
	if err := p.Restore(&buf); !strings.Contains(fmt.Sprint(err), "version 2") {
		t.Errorf("restore of a version-2 file returned %v, want an error naming version 2", err)
	}
}

// richNet is a 12-node factor-2 network in which every peer observed
// objects that then moved on, so that it holds its own and mirrored
// buckets and repositories, a transition model and IOP links; sixteen
// pallets pack three boxes each.
func richNet(t testing.TB) *Network {
	t.Helper()
	nw := buildNet(t, 12, Config{Mode: GroupIndexing, ReplicationFactor: 2})
	for i := 0; i < 48; i++ {
		moveObject(t, nw, richObject(i), []int{i % 12, (i + 5 + i/12%2) % 12}, time.Second, time.Minute)
	}
	nw.StartWindows(2 * time.Minute)
	nw.Run()
	for i := 0; i < 16; i++ {
		pallet := moods.ObjectID(fmt.Sprintf("pallet-%d", i))
		if err := nw.Peers()[i%12].Pack(pallet, []moods.ObjectID{richObject(3 * i), richObject(3*i + 1), richObject(3*i + 2)}, 3*time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	nw.SyncReplicas()
	return nw
}

func richObject(i int) moods.ObjectID { return moods.ObjectID(fmt.Sprintf("rich-%d", i)) }

// TestSnapshotDeterministic: one state has one snapshot, and restoring
// it into a fresh peer rebuilds that state — its snapshot is the same
// bytes.
func TestSnapshotDeterministic(t *testing.T) {
	nw := richNet(t)
	var p *Peer // the one of most containment children that holds every kind of unit
	for _, q := range nw.Peers() {
		if len(q.DumpIndex()) > 0 && len(q.DumpReplicas()) > 0 && len(q.DumpRepoReplicas()) > 0 && q.LocalVisits() > 0 &&
			len(q.trans.byDst) > 1 && (p == nil || len(q.contain.byChild) > len(p.contain.byChild)) {
			p = q
		}
	}
	if p == nil || len(p.contain.byChild) < 4 {
		t.Fatal("no peer holds every kind of unit and four containment children")
	}
	// Map iteration order varies from one range to the next, so eight
	// snapshots agree only if the snapshot sorts.
	first := snapshotOf(t, p)
	for i := 0; i < 7; i++ {
		if again := snapshotOf(t, p); !bytes.Equal(first, again) {
			t.Fatalf("two snapshots of one state differ (%d and %d bytes)", len(first), len(again))
		}
	}
	wipe(p)
	if err := p.Restore(bytes.NewReader(first)); err != nil {
		t.Fatal(err)
	}
	if again := snapshotOf(t, p); !bytes.Equal(first, again) {
		t.Fatalf("the snapshot of a restored peer differs from the one it was restored from (%d and %d bytes)", len(again), len(first))
	}
}

// TestRestartEveryPeerFromSnapshot: a network whose every peer restarts
// from its own snapshot resumes its version lines — the next sync round
// finds every mirror current, the next hop of every object goes out as
// deltas — and answers every trace as before.
func TestRestartEveryPeerFromSnapshot(t *testing.T) {
	nw := richNet(t)
	snaps := make([][]byte, len(nw.Peers()))
	for i, p := range nw.Peers() {
		snaps[i] = snapshotOf(t, p)
	}
	for i, p := range nw.Peers() {
		wipe(p)
		if err := p.Restore(bytes.NewReader(snaps[i])); err != nil {
			t.Fatal(err)
		}
	}
	pushes := nw.Telemetry.Counter("core.replication.repair_pushes")
	before := pushes.Value()
	nw.SyncReplicas()
	if n := pushes.Value() - before; n != 0 {
		t.Errorf("the sync round after the restart made %d whole-unit pushes, want 0", n)
	}
	for i := 0; i < 48; i++ {
		moveObject(t, nw, richObject(i), []int{(i + 9) % 12}, time.Hour, 0)
	}
	nw.Run()
	if n := pushes.Value() - before; n != 0 {
		t.Errorf("the hop after the restart made %d whole-unit pushes, want 0", n)
	}
	for i := 0; i < 48; i++ {
		res, err := nw.Peers()[0].FullTrace(richObject(i))
		if err != nil {
			t.Fatalf("trace %s: %v", richObject(i), err)
		}
		if want := nw.Oracle.FullTrace(richObject(i)); !res.Path.Equal(want) {
			t.Fatalf("trace %s = %v, want %v", richObject(i), res.Path, want)
		}
	}
}

// FuzzRestore: Restore refuses an input with an error, or restores a
// state whose snapshot restores into a fresh peer as the same bytes. It
// never panics.
func FuzzRestore(f *testing.F) {
	nw := richNet(f)
	p := nw.Peers()[3]
	f.Add(snapshotOf(f, p))
	f.Add(snapshotFile(p, transModelResp{}))
	f.Fuzz(func(t *testing.T, file []byte) {
		wipe(p)
		if p.Restore(bytes.NewReader(file)) != nil {
			return
		}
		first := snapshotOf(t, p)
		wipe(p)
		if err := p.Restore(bytes.NewReader(first)); err != nil {
			t.Fatalf("a snapshot of a restored state is refused: %v", err)
		}
		if again := snapshotOf(t, p); !bytes.Equal(first, again) {
			t.Fatalf("restoring a snapshot of a restored state changed it (%d bytes, then %d)", len(first), len(again))
		}
	})
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
	m := p.trans.model()
	dests, counts, dwells := m.Dests, m.Counts, m.MeanDwell
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
	for i := 0; i < 60; i++ {
		nw.ScheduleObservation(moods.Observation{
			Object: moods.ObjectID(fmt.Sprintf("held-%d", i)), Node: nw.Peers()[i%12].Name(), At: time.Second,
		})
	}
	nw.StartWindows(2 * time.Second)
	nw.Run()

	// A gateway and its one mirror.
	var owner, mirror *Peer
	for _, p := range nw.Peers() {
		if p.IndexedEntries() > 0 {
			owner = p
			mirror, _ = nw.PeerByName(moods.NodeName(p.mirrorSet()[0]))
			break
		}
	}
	if owner == nil || mirror.replica.totalEntries() == 0 {
		t.Fatal("no gateway with a mirror; pick another seed")
	}
	var buf bytes.Buffer
	if err := mirror.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Restart: everything but the address and the ring position is
	// gone, then the snapshot is loaded.
	wipe(mirror)
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
				p.Node().CheckPredecessor()
				p.Node().Stabilize()
			}
		}
	}
	before := mirror.IndexedEntries()
	mirror.onGossipDead(owner.Node().Self())
	if got := mirror.IndexedEntries() - before; got != want {
		t.Fatalf("dead verdict promoted %d restored records, want %d", got, want)
	}
}
