package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"peertrack/internal/ids"
	"peertrack/internal/moods"
	"peertrack/internal/replication"
	"peertrack/internal/transport"
	"peertrack/internal/transport/wiretest"
)

const (
	wireObj  = moods.ObjectID("urn:epc:id:sgtin:0614141.107346.2017")
	wireObj2 = moods.ObjectID("urn:epc:id:sgtin:0614141.107346.2018")
	wireN1   = moods.NodeName("127.0.0.1:7001")
	wireN2   = moods.NodeName("127.0.0.1:7002")
	wireN3   = moods.NodeName("10.0.0.12:7003")
)

var (
	wireKey   = ids.KeyOf(ids.HashString(string(wireObj)), 3)
	wireEntry = IndexEntry{
		Object: wireObj, ID: ids.HashString(string(wireObj)), Latest: wireN2, Prev: wireN1,
		Arrived: 61 * time.Minute, Indexed: 62 * time.Minute,
	}
	wireEntry2 = IndexEntry{
		Object: wireObj2, ID: ids.HashString(string(wireObj2)), Latest: wireN1,
		Arrived: time.Hour, Indexed: time.Hour + time.Second,
	}
	wireIDs    = []ids.ID{wireEntry.ID, wireEntry2.ID}
	wireVisits = []VisitRecord{
		{Object: wireObj, Arrived: time.Hour, To: wireN2},
		{Object: wireObj, Arrived: 3 * time.Hour, From: wireN2, To: wireN3},
	}
	// A locate's round trip: one id out, one entry back.
	wireQueryReq  = queryIndexReq{Key: wireKey, Objects: wireIDs[:1]}
	wireQueryResp = queryIndexResp{Entries: []IndexEntry{wireEntry}}
	wireRecords   = []ContainmentRecord{
		{Child: wireObj, Parent: "urn:epc:id:sscc:0614141.1234567890", From: time.Hour, To: 2 * time.Hour, At: wireN1},
		{Child: wireObj, Parent: "urn:epc:id:sscc:0614141.1234567891", From: 3 * time.Hour, At: wireN3},
	}
)

// wireEvents is a capture window of n objects, as a group-indexing
// message carries it.
func wireEvents(n int) []ObjEvent {
	evs := make([]ObjEvent, n)
	for i := range evs {
		evs[i] = ObjEvent{Object: moods.ObjectID(fmt.Sprintf("urn:epc:id:sgtin:0614141.107346.%04d", i)), Arrived: time.Duration(i) * time.Second}
	}
	return evs
}

// wireSamples has one populated value per layout of this package, in
// tag order.
var wireSamples = []transport.Wire{
	groupArriveReq{Key: wireKey, Events: wireEvents(3), Node: wireN1, At: time.Hour},
	groupArriveResp{Deferred: wireEvents(2)},
	iopSetToReq{Objects: []moods.ObjectID{wireObj, wireObj2}, To: wireN2, At: time.Hour},
	iopSetToResp{},
	iopSetFromReq{Links: []IOPLink{{Object: wireObj, From: wireN1, At: time.Hour}, {Object: wireObj2, At: time.Minute}}},
	iopSetFromResp{},
	fetchIndexReq{Key: wireKey, Objects: wireIDs},
	fetchIndexResp{Entries: []IndexEntry{wireEntry, wireEntry2}, Delegated: true},
	delegateReq{
		Key: wireKey, Entries: []IndexEntry{wireEntry}, MetaVersion: 17,
		MetaSynced: []replication.MirrorVersion{{Addr: "127.0.0.1:7002", Version: 17}, {Addr: "127.0.0.1:7003", Version: 16}},
	},
	delegateResp{},
	wireQueryReq,
	wireQueryResp,
	iopGetReq{Object: wireObj},
	iopGetResp{Visits: wireVisits, Found: true},

	containPutReq{Records: wireRecords, Close: true},
	containPutResp{},
	containGetReq{Child: wireObj},
	containGetResp{Records: wireRecords},

	transModelReq{},
	transModelResp{Dests: []moods.NodeName{wireN2, wireN3}, Counts: []int{7, 2}, MeanDwell: []time.Duration{time.Hour, 30 * time.Minute}},

	routedTraceReq{Object: wireObj, Key: wireEntry.ID, Bucket: wireKey, TTL: 64},
	routedTraceResp{Found: true, Path: []moods.Visit{{Node: wireN1, Arrived: time.Hour}, {Node: wireN2, Arrived: 2 * time.Hour}}, Hops: 3, Intermediate: true},

	replicatePutReq{Key: wireKey, Owner: "127.0.0.1:7001", Version: 9, Delegated: true, Entries: []IndexEntry{wireEntry}, Removed: wireIDs[1:]},
	mirrorResp{Current: true},
	replicaCheckReq{Key: wireKey, Repo: true, Owner: "127.0.0.1:7001", Version: 9},
	replicaCheckResp{Current: true},
	replicaDropReq{Key: wireKey, Repo: true, Owner: "127.0.0.1:7001"},
	replicaDropResp{},
	replicaQueryReq{Key: wireKey, Objects: wireIDs},
	replicaQueryResp{Entries: []IndexEntry{wireEntry2}, Delegated: true},
	repoMirrorReq{Owner: "127.0.0.1:7001", Version: 4, Full: true, Objects: []RepoObject{{Object: wireObj, Visits: wireVisits}, {Object: wireObj2}}},
	repoQueryReq{Owner: "127.0.0.1:7001", Object: wireObj},
	repoQueryResp{Visits: wireVisits, Found: true},
}

func TestWireLayouts(t *testing.T) { wiretest.Layouts(t, "core", wireSamples) }

// A prefix key has one form on the wire. The key below has a valid
// length and a bit set past it: it renders as the same prefix and hashes
// to the same gateway as wireKey, yet would key a second bucket, so the
// reader refuses the frame. So it does a length past ids.MaxKeyLen.
func TestWireRefusesKeyOutsideItsForm(t *testing.T) {
	bits := wireKey | 1<<40
	if bits.String() != wireKey.String() || bits.GatewayID() != wireKey.GatewayID() {
		t.Fatal("the planted bit changed the rendered prefix; pick another")
	}
	for _, m := range []any{
		delegateReq{Key: bits, Entries: []IndexEntry{wireEntry}},
		queryIndexReq{Key: bits, Objects: wireIDs[:1]},
		routedTraceReq{Object: wireObj, Bucket: ids.PrefixKey(ids.MaxKeyLen + 1), TTL: 3},
	} {
		body, err := transport.AppendBody(nil, string(wireN1), m)
		if err != nil {
			t.Fatal(err)
		}
		if _, p, err := transport.ParseBody(body); !errors.Is(err, transport.ErrBadFrame) {
			t.Errorf("%T parsed as %T, %v; want a bad frame", m, p, err)
		}
	}
}

// Twenty-eight of the thirty-four declarations count every field; the
// rest charge a flat size per record or leave a field out.
func TestWireDeclared(t *testing.T) {
	const perVisit = "WireSize charges a flat 32 bytes per visit, the layout writes its three strings"
	wiretest.Declared(t, wireSamples, map[string]string{
		"core.iopGetResp":      perVisit,
		"core.repoQueryResp":   perVisit,
		"core.repoMirrorReq":   perVisit,
		"core.containGetResp":  "WireSize charges a flat 64 bytes per record",
		"core.routedTraceReq":  "WireSize charges TTL 2 bytes, an int travels as 8",
		"core.routedTraceResp": "WireSize charges a flat 24 bytes per visit and 8 for the rest",
	})
}

// A locate's round trip — queryIndexReq out, queryIndexResp with one
// entry back — allocates seven times, both ends together, and every one
// is part of a decoded value: at the gateway the request's id slice and
// its boxing into the handler's `any`; at the caller the entry slice, the
// entry's three strings and the boxing. Framing, encoding and the
// sender's address allocate nothing. (Under gob it was 24.)
func TestQueryRoundTripAllocs(t *testing.T) {
	if got := wiretest.TCPCallAllocs(t, wireQueryReq, wireQueryResp); got > 7 {
		t.Errorf("a query round trip allocates %.1f times, want 7", got)
	}
}

// The three messages the live hot paths send most: a locate's index
// query, a window flush's group message, and (in chord) a lookup step.
func BenchmarkTCPCall(b *testing.B) {
	b.Run("queryIndex", func(b *testing.B) {
		wiretest.BenchTCPCall(b, wireQueryReq, wireQueryResp)
	})
	b.Run("groupArrive256", func(b *testing.B) {
		wiretest.BenchTCPCall(b, groupArriveReq{Key: wireKey, Events: wireEvents(256), Node: wireN1, At: time.Hour}, groupArriveResp{})
	})
}
