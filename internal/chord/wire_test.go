package chord

import (
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
