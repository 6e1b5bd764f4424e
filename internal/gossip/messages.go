package gossip

import (
	"peertrack/internal/chord"
	"peertrack/internal/transport"
)

// Entry is one membership-view slot: a node reference plus its age in
// gossip rounds. Age 0 means "the node itself vouched for this entry
// this round"; every round of silence ages it by one, and merges keep
// the youngest report per address, so fresh liveness information always
// displaces stale hearsay.
type Entry struct {
	Ref chord.NodeRef
	Age uint32
}

// exchangeReq is the push half of a push/pull view exchange: the
// sender's self-entry (age 0) plus a copy of its current view.
type exchangeReq struct {
	From    chord.NodeRef
	Entries []Entry
}

// exchangeResp is the pull half: the receiver's pre-merge view plus its
// self-entry, so both sides learn the union.
type exchangeResp struct {
	Entries []Entry
}

// probeReq validates a sampler element or view entry: any answer at all
// proves liveness.
type probeReq struct{}

// probeResp carries the prober target's self reference.
type probeResp struct {
	Self chord.NodeRef
}

// entryWireSize approximates one Entry on the wire: a 20-byte
// identifier, the address, and the age word.
func entryWireSize(e Entry) int {
	return 20 + len(e.Ref.Addr) + 4
}

// WireSize implements transport.WireSizer for byte accounting.
func (r exchangeReq) WireSize() int {
	n := 20 + len(r.From.Addr)
	for _, e := range r.Entries {
		n += entryWireSize(e)
	}
	return n
}

// WireSize implements transport.WireSizer.
func (r exchangeResp) WireSize() int {
	n := 0
	for _, e := range r.Entries {
		n += entryWireSize(e)
	}
	return n
}

// WireSize implements transport.WireSizer.
func (r probeResp) WireSize() int { return 20 + len(r.Self.Addr) }

// The wire layouts (transport.RegisterLayout): fields in declaration
// order. The tag table is append-only — a released tag is never
// renumbered or reused.
func init() {
	transport.RegisterLayout(0x0300, readExchangeReq)
	transport.RegisterLayout(0x0301, readExchangeResp)
	transport.RegisterLayout(0x0302, transport.ReadEmpty[probeReq])
	transport.RegisterLayout(0x0303, readProbeResp)
}

// entryWireMin is the fewest bytes an Entry occupies on the wire.
const entryWireMin = chord.RefWireMin + 4

func appendEntry(b []byte, e Entry) []byte {
	return transport.AppendU32(chord.AppendRef(b, e.Ref), e.Age)
}

func readEntry(r *transport.Reader) Entry { return Entry{Ref: chord.ReadRef(r), Age: r.U32()} }

func (m exchangeReq) AppendWire(b []byte) []byte {
	return transport.AppendSlice(chord.AppendRef(b, m.From), m.Entries, appendEntry)
}

func readExchangeReq(r *transport.Reader) exchangeReq {
	return exchangeReq{From: chord.ReadRef(r), Entries: transport.ReadSlice(r, entryWireMin, readEntry)}
}

func (m exchangeResp) AppendWire(b []byte) []byte {
	return transport.AppendSlice(b, m.Entries, appendEntry)
}

func readExchangeResp(r *transport.Reader) exchangeResp {
	return exchangeResp{Entries: transport.ReadSlice(r, entryWireMin, readEntry)}
}

func (probeReq) AppendWire(b []byte) []byte { return b }

func (m probeResp) AppendWire(b []byte) []byte { return chord.AppendRef(b, m.Self) }

func readProbeResp(r *transport.Reader) probeResp { return probeResp{Self: chord.ReadRef(r)} }
