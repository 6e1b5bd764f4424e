// The corpus of the msgfreeze pass, which sendalias absorbed: a message
// handed to the transport is owned by the receiver; writes through the
// pointer afterwards are flagged.
package msgfreeze

import "transport"

type msg struct {
	N    int
	Tags []string
}

func badPointerWrite(nw transport.Network, m *msg) {
	nw.Call("a", "b", m)
	m.N = 1 // want "passed to transport Call"
}

func badAddrOf(nw transport.Network) {
	m := msg{}
	nw.Call("a", "b", &m)
	m.N = 2 // want "passed to transport Call"
}

func badSend(mem *transport.Memory, m *msg) {
	mem.Send("b", m)
	m.Tags[0] = "late" // want "passed to transport Send"
}

func badWholeValueOverwrite(nw transport.Network) {
	m := msg{}
	nw.Call("a", "b", &m)
	m = msg{N: 3} // want "passed to transport Call"
	_ = m
}

func badIncrement(nw transport.Network, m *msg) {
	nw.Call("a", "b", m)
	m.N++ // want "passed to transport Call"
}

// Preparing the message before the send is the whole point.
func goodWriteBefore(nw transport.Network, m *msg) {
	m.N = 1
	nw.Call("a", "b", m)
}

// A value argument is boxed as a copy; the caller's variable stays
// private.
func goodValueCopy(nw transport.Network, m msg) {
	nw.Call("a", "b", m)
	m.N = 9
}

// Re-pointing at a fresh message frees the name for reuse.
func goodReassignedPointer(nw transport.Network, m *msg) {
	nw.Call("a", "b", m)
	m = &msg{}
	m.N = 1
	_ = m
}

// Writes to a different message are unrelated.
func goodOtherVariable(nw transport.Network, m, other *msg) {
	nw.Call("a", "b", m)
	other.N = 1
}

func allowedPooledReset(nw transport.Network, m *msg) {
	nw.Call("a", "b", m)
	m.N = 0 //lint:allow sendalias pooled request reset; memory transport handler returns before Call does
}
