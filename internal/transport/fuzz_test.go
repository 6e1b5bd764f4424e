package transport_test

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	_ "peertrack/internal/chord" // the three packages' layouts, so that every tag parses
	_ "peertrack/internal/core"
	_ "peertrack/internal/gossip"
	"peertrack/internal/transport"
)

// FuzzFrame feeds arbitrary bytes to the parser of message bodies —
// requests and responses share it — directly, behind a preface and a
// length header as a connection reads them, and as a raw stream. Nothing
// may panic, every refusal is a bad frame, and whatever parses encodes
// back to bytes that parse to the same value. The seed corpus under
// testdata/fuzz/FuzzFrame is one populated sample per layout, written by
// the sample tables of chord, core and gossip (wiretest.Layouts).
func FuzzFrame(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})                         // no sender, no payload
	f.Add([]byte{0, 1, 'e', 0, 0})                    // a response that is only an error text
	f.Add([]byte{0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF}) // the gob carrier, fed garbage
	f.Fuzz(func(t *testing.T, body []byte) {
		transport.RecvFrom(body) // a raw stream: only must not panic
		head, payload, err := transport.ParseBody(body)
		stream := append(binary.BigEndian.AppendUint32([]byte(transport.Preface), uint32(len(body))), body...)
		if h, p, e := transport.RecvFrom(stream); h != head || !reflect.DeepEqual(p, payload) || (e == nil) != (err == nil) {
			t.Fatalf("a connection read %q, %+v, %v; the parser %q, %+v, %v", h, p, e, head, payload, err)
		}
		if err != nil {
			if !errors.Is(err, transport.ErrBadFrame) {
				t.Fatalf("refused with %v, which is not a bad frame", err)
			}
			return
		}
		again, err := transport.AppendBody(nil, head, payload)
		if err != nil {
			t.Fatalf("%+v parsed and does not encode: %v", payload, err)
		}
		if h, p, err := transport.ParseBody(again); err != nil || h != head || !reflect.DeepEqual(p, payload) {
			t.Fatalf("%+v re-encoded parses as %q, %+v, %v", payload, h, p, err)
		}
	})
}
