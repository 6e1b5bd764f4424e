package peertrack

import (
	"testing"

	"peertrack/internal/transport"
)

// Everything this module sends has a fixed wire layout. The gob carrier
// is left to types the module does not own: bench/'s echo types and
// transport's own tests, neither linked into this test. A message type
// registered with transport.Register instead of transport.RegisterLayout
// shows up here.
func TestNoRepoMessageTravelsByGob(t *testing.T) {
	laidOut, carried := transport.Registered()
	if len(carried) != 0 {
		t.Errorf("registered types without a layout = %v, want none", carried)
	}
	if len(laidOut) != 47 {
		t.Errorf("%d types have a layout, want 47 (chord 10, core 33, gossip 4): %v", len(laidOut), laidOut)
	}
}
