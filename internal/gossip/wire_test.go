package gossip

import (
	"testing"

	"peertrack/internal/chord"
	"peertrack/internal/ids"
	"peertrack/internal/transport"
	"peertrack/internal/transport/wiretest"
)

func wireEntry(addr string, age uint32) Entry {
	return Entry{Ref: chord.NodeRef{ID: ids.HashString(addr), Addr: transport.Addr(addr)}, Age: age}
}

// wireSamples has one populated value per layout of this package.
var wireSamples = []transport.Wire{
	exchangeReq{
		From:    wireEntry("127.0.0.1:7001", 0).Ref,
		Entries: []Entry{wireEntry("127.0.0.1:7002", 0), wireEntry("127.0.0.1:7003", 2), wireEntry("10.0.0.12:7004", 7)},
	},
	exchangeResp{Entries: []Entry{wireEntry("127.0.0.1:7005", 1), wireEntry("127.0.0.1:7001", 0)}},
	probeReq{},
	probeResp{Self: wireEntry("127.0.0.1:7002", 0).Ref},
}

func TestWireLayouts(t *testing.T) { wiretest.Layouts(t, "gossip", wireSamples) }

// Every gossip declaration counts every field.
func TestWireDeclared(t *testing.T) { wiretest.Declared(t, wireSamples, nil) }
