package invariants

import (
	"testing"
	"time"

	"peertrack/internal/core"
	"peertrack/internal/ids"
	"peertrack/internal/moods"
)

func TestReplicaAgreementCleanNetwork(t *testing.T) {
	for _, factor := range []int{2, 3} {
		nw := buildTracked(t, 10, core.Config{ReplicationFactor: factor})
		nw.SyncReplicas()
		if vs := CheckReplicaAgreement(nw.Peers()); len(vs) != 0 {
			t.Errorf("factor %d: unexpected violations: %v", factor, vs)
		}
	}
}

func TestReplicaAgreementFactorOneIsVacuous(t *testing.T) {
	nw := buildTracked(t, 8, core.Config{})
	if vs := CheckReplicaAgreement(nw.Peers()); len(vs) != 0 {
		t.Errorf("factor 1 reported violations: %v", vs)
	}
}

func TestReplicaAgreementAfterMembershipChange(t *testing.T) {
	nw := buildTracked(t, 10, core.Config{ReplicationFactor: 3})
	if _, _, err := nw.Grow(4); err != nil {
		t.Fatal(err)
	}
	nw.SyncReplicas()
	if vs := CheckReplicaAgreement(nw.Peers()); len(vs) != 0 {
		t.Errorf("after grow: %v", vs)
	}
	if _, _, err := nw.Shrink(5); err != nil {
		t.Fatal(err)
	}
	nw.SyncReplicas()
	if vs := CheckReplicaAgreement(nw.Peers()); len(vs) != 0 {
		t.Errorf("after shrink: %v", vs)
	}
}

func TestReplicaAgreementDetectsCorruption(t *testing.T) {
	nw := buildTracked(t, 10, core.Config{ReplicationFactor: 2})
	nw.SyncReplicas()
	if vs := CheckReplicaAgreement(nw.Peers()); len(vs) != 0 {
		t.Fatalf("clean network reported violations: %v", vs)
	}

	// Tamper with a primary record without telling the mirrors: the
	// checker must see the copy disagree.
	var victim *core.Peer
	var key ids.PrefixKey
	for _, p := range nw.Peers() {
		for _, b := range p.DumpIndex() {
			if len(b.Entries) > 0 {
				victim, key = p, b.Key
				break
			}
		}
		if victim != nil {
			break
		}
	}
	if victim == nil {
		t.Fatal("no populated bucket to corrupt")
	}
	victim.InjectIndexEntry(key, core.IndexEntry{
		Object:  moods.ObjectID("urn:epc:forged"),
		ID:      moods.ObjectID("urn:epc:forged").Hash(),
		Latest:  victim.Name(),
		Arrived: time.Hour,
	})
	vs := CheckReplicaAgreement(nw.Peers())
	if !hasInvariant(vs, "replica-agreement") {
		t.Fatalf("forged primary record not detected: %v", vs)
	}
}
