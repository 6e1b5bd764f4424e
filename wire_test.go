package peertrack

import (
	"reflect"
	"testing"

	"peertrack/internal/transport"
)

// Everything a live node can send has a fixed wire layout. The gob
// carrier is left to types this module does not own and to the
// simulation-only Kademlia overlay, whose four messages only ever cross
// transport.Memory — which never encodes. A new message type registered
// with transport.Register instead of transport.RegisterLayout shows up
// here.
func TestOnlyKademliaTravelsByGob(t *testing.T) {
	laidOut, carried := transport.Registered()
	want := []string{"kademlia.findNodeReq", "kademlia.findNodeResp", "kademlia.pingReq", "kademlia.pingResp"}
	if !reflect.DeepEqual(carried, want) {
		t.Errorf("registered types without a layout = %v, want %v", carried, want)
	}
	if len(laidOut) != 49 {
		t.Errorf("%d types have a layout, want 49 (chord 10, core 35, gossip 4): %v", len(laidOut), laidOut)
	}
}
