package chord

import (
	"fmt"
	"testing"

	"peertrack/internal/ids"
	"peertrack/internal/transport"
	"peertrack/internal/transport/wiretest"
)

func wireRef(addr string) NodeRef {
	return NodeRef{ID: ids.HashString(addr), Addr: transport.Addr(addr)}
}

// wireSamples has one populated value per layout of this package.
var wireSamples = []transport.Wire{
	pingReq{},
	pingResp{Self: wireRef("127.0.0.1:7001")},
	getStateReq{},
	getStateResp{
		Self:       wireRef("127.0.0.1:7001"),
		Successors: []NodeRef{wireRef("127.0.0.1:7002"), wireRef("127.0.0.1:7003"), wireRef("10.0.0.12:7004")},
		Pred:       wireRef("127.0.0.1:7009"),
	},
	closestPrecedingReq{Key: ids.HashString("urn:epc:id:sgtin:0614141.107346.2017")},
	closestPrecedingResp{Node: wireRef("127.0.0.1:7005"), Done: true},
	notifyReq{Candidate: wireRef("127.0.0.1:7006")},
	notifyResp{},
	leaveReq{
		Leaver:     wireRef("127.0.0.1:7001"),
		Pred:       wireRef("127.0.0.1:7009"),
		Successors: []NodeRef{wireRef("127.0.0.1:7002")},
	},
	leaveResp{},
}

func TestWireLayouts(t *testing.T) { wiretest.Layouts(t, "chord", wireSamples) }

// No chord message declares a WireSize: each is charged the flat
// DefaultMsgSize, which the non-empty ones exceed by their node
// references (22 bytes and the address each).
func TestWireDeclared(t *testing.T) {
	const refs = "no WireSize: node references ride the flat charge"
	wiretest.Declared(t, wireSamples, map[string]string{
		"chord.pingResp":             refs,
		"chord.getStateResp":         refs,
		"chord.closestPrecedingReq":  "no WireSize: the 20-byte key rides the flat charge",
		"chord.closestPrecedingResp": refs,
		"chord.notifyReq":            refs,
		"chord.leaveReq":             refs,
	})
}

func BenchmarkTCPCall(b *testing.B) {
	b.Run("closestPreceding", func(b *testing.B) {
		wiretest.BenchTCPCall(b, closestPrecedingReq{Key: ids.HashString("urn:epc:id:sgtin:0614141.107346.2017")},
			closestPrecedingResp{Node: wireRef("127.0.0.1:7005"), Done: true})
	})
}

// TestBoxedAnswerOverTCP: an answer served from a box encodes like any
// other: asked twice over loopback TCP, once to fill the box and once
// from it, a node's closest-preceding answers decode to what its routing
// state says.
func TestBoxedAnswerOverTCP(t *testing.T) {
	h := NewTCPHarness(t)
	defer h.Close()
	a, b, c := h.NewNode("a"), h.NewNode("b"), h.NewNode("c")
	WireStaticRing([]*Node{a, b, c})
	for i := 0; i < 16; i++ {
		key := ids.HashString(fmt.Sprintf("boxed-%d", i))
		want, _ := truth(a, key)
		for ask := 0; ask < 2; ask++ {
			resp, err := h.tr.Call(b.Addr(), a.Addr(), closestPrecedingReq{Key: key})
			if err != nil {
				t.Fatal(err)
			}
			if got := resp.(closestPrecedingResp); got != want {
				t.Fatalf("key %s, ask %d: %+v over TCP, the routing state says %+v", key.Short(), ask, got, want)
			}
		}
	}
	if filled(a) == 0 {
		t.Fatal("no answer was boxed")
	}
}
