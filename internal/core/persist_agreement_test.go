package core_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"peertrack/internal/core"
	"peertrack/internal/invariants"
	"peertrack/internal/moods"
)

// TestSnapshotBetweenMutationAndPush: a snapshot taken while a bucket's
// change waits for its mirror push must not claim the version the
// mirrors hold without it. Restored, the owner re-ships the bucket whole
// at the next sync round, and every mirror agrees with its owner.
func TestSnapshotBetweenMutationAndPush(t *testing.T) {
	nw, err := core.BuildNetwork(core.NetworkConfig{Nodes: 8, Seed: 1, Peer: core.Config{Mode: core.GroupIndexing, ReplicationFactor: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		nw.ScheduleObservation(moods.Observation{Object: moods.ObjectID(fmt.Sprintf("queued-%d", i)), Node: nw.Peers()[i%8].Name(), At: time.Second})
	}
	nw.Run()
	nw.SyncReplicas()
	if vs := invariants.CheckReplicaAgreement(nw.Peers()); len(vs) != 0 {
		t.Fatalf("mirrors disagree before the restart: %v", vs)
	}

	var owner *core.Peer
	var bucket core.BucketSnapshot
	for _, p := range nw.Peers() {
		if b := p.DumpIndex(); len(b) > 0 && len(b[0].Entries) > 0 {
			owner, bucket = p, b[0]
			break
		}
	}
	if owner == nil {
		t.Fatal("no peer holds a record")
	}
	e := bucket.Entries[0]
	e.Prev, e.Latest, e.Arrived = e.Latest, nw.Peers()[1].Name(), time.Minute
	owner.WriteUnpushed(bucket.Key, e)

	var snap bytes.Buffer
	if err := owner.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := core.Restart(owner, snap.Bytes()); err != nil {
		t.Fatal(err)
	}
	nw.SyncReplicas()
	if vs := invariants.CheckReplicaAgreement(nw.Peers()); len(vs) != 0 {
		t.Fatalf("after the restart and a sync round: %v", vs)
	}
}
