// Package sendalias exercises the wire-aliasing pass: message fields
// aliasing sender state directly, through helpers, through argument
// forwarding, and the clone shapes that must stay quiet.
package sendalias

import "transport"

type ping struct {
	Peers []string
	Seq   int
}

var shared = []string{"seed"}

type agent struct {
	net   transport.Memory
	peers []string
}

// direct: the message literal carries a live view of receiver state.
func (a *agent) direct(to transport.Addr) {
	req := ping{Peers: a.peers, Seq: 1} // want "message field Peers aliases the sender's own state"
	a.net.Call("a", to, req)
}

// global: package-level state crossing the wire.
func (a *agent) global(to transport.Addr) {
	a.net.Call("a", to, ping{Peers: shared}) // want "message field Peers aliases package-level state"
}

// viaHelper: the alias hides behind a helper that returns receiver
// state; the facts see through it.
func (a *agent) view() []string {
	return a.peers
}

func (a *agent) viaHelper(to transport.Addr) {
	a.net.Call("a", to, ping{Peers: a.view()}) // want `built by sendalias\.\(\*agent\)\.view, which may return a view`
}

// cloned is a false-positive trap: the helper provably returns a fresh
// slice (make+copy), so sending its result is fine.
func (a *agent) clone() []string {
	out := make([]string, len(a.peers))
	copy(out, a.peers)
	return out
}

func (a *agent) cloned(to transport.Addr) {
	a.net.Call("a", to, ping{Peers: a.clone()})
}

// appended is a false-positive trap: append to a nil base is the
// idiomatic fresh copy.
func (a *agent) appended(to transport.Addr) {
	buf := append([]string(nil), a.peers...)
	a.net.Call("a", to, ping{Peers: buf})
}

// writeAfter: fresh at send time is not enough — writing through the
// retained local afterwards mutates memory the peer may own.
func (a *agent) writeAfter(to transport.Addr) {
	buf := make([]string, 0, 4)
	buf = append(buf, "x")
	a.net.Call("a", to, ping{Peers: buf})
	buf = append(buf, "y") // want "passed to transport Call"
	_ = buf
}

// sendVia sends its peers parameter; callers passing retained state
// are flagged at their call sites.
func sendVia(net *transport.Memory, to transport.Addr, peers []string) {
	net.Call("a", to, ping{Peers: peers})
}

func (a *agent) forwarded(to transport.Addr) {
	sendVia(&a.net, to, a.peers) // want "argument aliases the caller's retained state and sendalias.sendVia sends it"
}

// forwardedFresh is a false-positive trap: a fresh argument through the
// same forwarding helper is fine.
func (a *agent) forwardedFresh(to transport.Addr) {
	sendVia(&a.net, to, append([]string(nil), a.peers...))
}
