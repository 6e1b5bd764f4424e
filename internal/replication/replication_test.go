package replication

import (
	"reflect"
	"testing"

	"peertrack/internal/ids"
	"peertrack/internal/transport"
)

// key is the prefix key a binary literal such as "0110" names.
func key(s string) ids.PrefixKey {
	var k ids.PrefixKey
	for _, c := range s {
		k = k.Child(int(c - '0'))
	}
	return k
}

func TestBumpAndSyncBookkeeping(t *testing.T) {
	e := NewEngine()
	u := IndexUnit(key("0101"))
	if v := e.Bump(u); v != 1 {
		t.Fatalf("first bump = %d, want 1", v)
	}
	if v := e.Bump(u); v != 2 {
		t.Fatalf("second bump = %d, want 2", v)
	}
	e.MarkSynced(u, "m1", 2)
	if got := e.SyncedAt(u, "m1"); got != 2 {
		t.Fatalf("SyncedAt(m1) = %d, want 2", got)
	}
	if got := e.SyncedAt(u, "m2"); got != 0 {
		t.Fatalf("SyncedAt(m2) = %d, want 0", got)
	}
	e.ClearSynced(u, "m1")
	if got := e.SyncedAt(u, "m1"); got != 0 {
		t.Fatalf("SyncedAt after clear = %d, want 0", got)
	}
}

func TestExportAdoptRoundTrip(t *testing.T) {
	e := NewEngine()
	u := IndexUnit(key("11"))
	e.Bump(u)
	e.Bump(u)
	e.Bump(u)
	e.MarkSynced(u, "b", 3)
	e.MarkSynced(u, "a", 3)
	meta, ok := e.DropOwned(u)
	if !ok {
		t.Fatal("DropOwned found nothing")
	}
	if _, ok := e.Version(u); ok {
		t.Fatal("unit still owned after drop")
	}
	want := OwnedMeta{Version: 3, Synced: []MirrorVersion{{Addr: "a", Version: 3}, {Addr: "b", Version: 3}}}
	if !reflect.DeepEqual(meta, want) {
		t.Fatalf("exported meta = %+v, want %+v", meta, want)
	}

	e2 := NewEngine()
	e2.AdoptOwned(u, meta)
	if v, ok := e2.Version(u); !ok || v != 3 {
		t.Fatalf("adopted version = %d,%v, want 3", v, ok)
	}
	if e2.SyncedAt(u, "a") != 3 || e2.SyncedAt(u, "b") != 3 {
		t.Fatal("adopted synced map lost mirror state")
	}
	// The next mutation continues the version line.
	if v := e2.Bump(u); v != 4 {
		t.Fatalf("bump after adopt = %d, want 4", v)
	}
}

func TestCheckHeldTransfersOwnership(t *testing.T) {
	e := NewEngine()
	u := IndexUnit(key("001"))
	e.RecordHeld(u, "old-owner", 7)
	if e.CheckHeld(u, "new-owner", 6) {
		t.Fatal("stale probe version reported current")
	}
	if !e.CheckHeld(u, "new-owner", 7) {
		t.Fatal("matching probe version reported stale")
	}
	owner, v, ok := e.HeldMeta(u)
	if !ok || owner != "new-owner" || v != 7 {
		t.Fatalf("held meta after probe = %s/%d/%v, want new-owner/7", owner, v, ok)
	}
}

func TestHeldEnumerationOrderAndOwnerFilter(t *testing.T) {
	e := NewEngine()
	e.RecordHeld(IndexUnit(key("1")), "x", 1)
	e.RecordHeld(IndexUnit(key("01")), "y", 2)
	e.RecordHeld(RepoUnit, "x", 3)
	held := e.Held()
	if len(held) != 3 || held[0].Unit != IndexUnit(key("01")) || held[1].Unit != IndexUnit(key("1")) || !held[2].Unit.Repo {
		t.Fatalf("held order wrong: %+v", held)
	}
	// A dead verdict asks for exactly the dead owner's units, with the
	// provenance promotion needs.
	byX := e.HeldFor("x")
	want := []HeldInfo{{Unit: IndexUnit(key("1")), Owner: "x", Version: 1}, {Unit: RepoUnit, Owner: "x", Version: 3}}
	if !reflect.DeepEqual(byX, want) {
		t.Fatalf("HeldFor(x) = %+v, want %+v", byX, want)
	}
}

func TestStaleHeldGarbageCollection(t *testing.T) {
	e := NewEngine()
	ua, ub := IndexUnit(key("0")), IndexUnit(key("1"))
	e.RecordHeld(ua, "o", 1)
	e.RecordHeld(ub, "o", 1)
	e.BeginSync()
	if !e.CheckHeld(ua, "o", 1) {
		t.Fatal("probe failed")
	}
	stale := e.StaleHeld(nil)
	if len(stale) != 1 || stale[0] != (HeldInfo{Unit: ub, Owner: "o", Version: 1}) {
		t.Fatalf("stale = %+v, want [%v]", stale, ub)
	}
	// A push arriving during the sync round also counts as a touch.
	e.BeginSync()
	e.RecordHeld(ub, "o", 2)
	stale = e.StaleHeld(nil)
	if len(stale) != 1 || stale[0].Unit != ua {
		t.Fatalf("stale after re-push = %+v, want [%v]", stale, ua)
	}
}

// A dead owner cannot refresh its units, so they are not orphans — for
// as long as the failure detector, which owns the verdict, says dead.
// The engine keeps no mark of its own: the moment the detector takes the
// verdict back, a unit nothing touched is an orphan again.
func TestDeadOwnerUnitsAreNotStale(t *testing.T) {
	e := NewEngine()
	ua, ub := IndexUnit(key("0")), IndexUnit(key("10"))
	e.RecordHeld(ua, "dead", 1)
	e.RecordHeld(ub, "live", 1)
	e.BeginSync()
	verdict := true
	dead := func(owner transport.Addr) bool { return verdict && owner == "dead" }
	if stale := e.StaleHeld(dead); len(stale) != 1 || stale[0].Unit != ub {
		t.Fatalf("stale with owner dead = %+v, want only %v", stale, ub)
	}
	verdict = false
	if stale := e.StaleHeld(dead); len(stale) != 2 || stale[0].Unit != ua {
		t.Fatalf("stale after the resurrection = %+v, want %v and %v", stale, ua, ub)
	}
}

func TestOwnedUnitsSorted(t *testing.T) {
	e := NewEngine()
	e.Bump(RepoUnit)
	e.Bump(IndexUnit(key("10")))
	e.Bump(IndexUnit(key("0")))
	got := e.OwnedUnits()
	if len(got) != 3 || got[0] != IndexUnit(key("0")) || got[1] != IndexUnit(key("10")) || !got[2].Repo {
		t.Fatalf("owned order wrong: %+v", got)
	}
}

// TestStreamHasOneHolderAtATime: Acquire takes an idle stream, hands
// every caller that finds it taken the channel Release closes and the
// holder's kind of turn, and streams of different units are independent.
func TestStreamHasOneHolderAtATime(t *testing.T) {
	e := NewEngine()
	u := IndexUnit(key("0101"))
	if wait, _ := e.Acquire(u, true); wait != nil {
		t.Fatal("an idle stream was not taken")
	}
	if wait, _ := e.Acquire(RepoUnit, false); wait != nil {
		t.Fatal("another unit's stream was held too")
	}
	wait, sends := e.Acquire(u, false)
	if wait == nil || !sends {
		t.Fatalf("a second caller took a held stream, or was told the wrong kind of turn (sends=%v)", sends)
	}
	if _, sends := e.Acquire(RepoUnit, true); sends {
		t.Fatal("a probe turn was reported as a sending one")
	}
	select {
	case <-wait:
		t.Fatal("the waiter was woken while the stream was held")
	default:
	}
	e.Release(u)
	<-wait
	if wait, _ := e.Acquire(u, false); wait != nil {
		t.Fatal("a released stream was not free")
	}
}
