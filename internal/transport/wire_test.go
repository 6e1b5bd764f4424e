package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// listReq is this package's own layout type (the echo types stay on the
// gob carrier, as a foreign module's are): a string, a slice and an int.
type listReq struct {
	Name  string
	Items []string
	N     int
}

func (m listReq) AppendWire(b []byte) []byte {
	return AppendInt(AppendSlice(AppendString(b, m.Name), m.Items, AppendString[string]), m.N)
}

func readListReq(r *Reader) listReq {
	return listReq{Name: r.String(), Items: ReadSlice(r, 2, ReadString[string]), N: int(r.Int())}
}

const listReqTag = 0xFF00

func init() { RegisterLayout(listReqTag, readListReq) }

func listHandler(from Addr, req any) (any, error) {
	if l, ok := req.(listReq); ok {
		return listReq{Name: string(from), Items: l.Items, N: l.N + 1}, nil
	}
	return echoHandler(from, req)
}

func TestLayoutRoundTripOverTCP(t *testing.T) {
	for _, secret := range [][]byte{nil, []byte("s")} {
		tr := NewTCP()
		tr.Secret = secret
		addr, err := tr.RegisterAuto("127.0.0.1", listHandler)
		if err != nil {
			t.Fatal(err)
		}
		long := strings.Repeat("x", longString+10) // takes the escape
		for i, items := range [][]string{nil, {"a", "", long}, {"b"}} {
			want := listReq{Name: "client", Items: items, N: i + 1}
			if resp, err := tr.Call("client", addr, listReq{Name: "n", Items: items, N: i}); err != nil || !reflect.DeepEqual(resp, want) {
				t.Fatalf("secret %q call %d = %+v, %v", secret, i, resp, err)
			}
			// The gob carrier and the layouts share the connection.
			if resp, err := tr.Call("client", addr, echoReq{Msg: "gob"}); err != nil || resp != (echoResp{Msg: "gob"}) {
				t.Fatalf("secret %q carrier call %d = %+v, %v", secret, i, resp, err)
			}
		}
		tr.Close()
	}
}

func TestNilPayloadCrosses(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	addr, err := tr.RegisterAuto("127.0.0.1", func(Addr, any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := tr.Call("client", addr, nil); resp != nil || err != nil {
		t.Fatalf("nil call = %v, %v", resp, err)
	}
}

func TestRegisterLayoutPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("reserved tag", func() { RegisterLayout(tagGob, ReadEmpty[emptyMsg]) })
	mustPanic("reserved tag", func() { RegisterLayout(firstLayoutTag-1, ReadEmpty[emptyMsg]) })
	mustPanic("duplicate tag", func() { RegisterLayout(listReqTag, ReadEmpty[emptyMsg]) })
	mustPanic("second layout for a type", func() { RegisterLayout(listReqTag+1, readListReq) })
	// This package's share of the tables (the external test package links
	// chord, core and gossip in): the refused registrations left nothing.
	own := func(names []string) (own []string) {
		for _, n := range names {
			if strings.HasPrefix(n, "transport.") {
				own = append(own, n)
			}
		}
		return own
	}
	if laidOut, carried := Registered(); !reflect.DeepEqual(own(laidOut), []string{"transport.listReq"}) ||
		!reflect.DeepEqual(own(carried), []string{"transport.bigReq", "transport.echoReq", "transport.echoResp"}) {
		t.Errorf("Registered() = %v, %v", laidOut, carried)
	}
}

type emptyMsg struct{}

func (emptyMsg) AppendWire(b []byte) []byte { return b }

// An oversize payload fails at its sender with an error that names the
// cap, and costs the caller one dropped call.
func TestOversizeFrameFailsAtTheSender(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a frame above the 64 MiB cap")
	}
	tr := NewTCP()
	defer tr.Close()
	addr, err := tr.RegisterAuto("127.0.0.1", listHandler)
	if err != nil {
		t.Fatal(err)
	}
	_, err = tr.Call("client", addr, listReq{Items: []string{strings.Repeat("x", MaxFrame)}})
	if !errors.Is(err, ErrUnreachable) || !strings.Contains(err.Error(), "exceeds MaxFrame") {
		t.Fatalf("err = %v", err)
	}
	if snap := tr.Stats().Snapshot(); snap.Calls != 1 || snap.Drops != 1 || !snap.Conserves() {
		t.Fatalf("stats = %+v", snap)
	}
	if _, err := tr.Call("client", addr, listReq{}); err != nil {
		t.Fatalf("call after the oversize one: %v", err)
	}
}

// TestSendZeroAllocs pins the sending half of every P2P message: past a
// connection's first frame, send writes preface-free out of the buffer
// the connection keeps, and a layout appends into it — no allocation
// per message, whatever the payload (the boxed value is the caller's).
func TestSendZeroAllocs(t *testing.T) {
	sender, wire, _ := authEnds(nil)
	var payload any = listReq{Name: "n", Items: []string{"a", "bc"}, N: 7}
	if allocs := testing.AllocsPerRun(200, func() {
		wire.Reset()
		if err := sender.send("127.0.0.1:7001", payload); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("send allocates %.1f objects a message, want 0", allocs)
	}
	if _, got, err := RecvFrom(append([]byte(Preface), wire.Bytes()...)); err != nil || !reflect.DeepEqual(got, payload) {
		t.Errorf("the last frame reads back as %+v, %v", got, err)
	}
}

// frame wraps body in its length header.
func frame(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// Whatever a peer sends that is not a well-formed frame closes that
// connection — and only it — is counted in transport.frames.rejected,
// and makes the node allocate nothing near what the bytes claim.
func TestHostileFramesAreRefused(t *testing.T) {
	server := NewTCP()
	defer server.Close()
	addr, err := server.RegisterAuto("127.0.0.1", listHandler)
	if err != nil {
		t.Fatal(err)
	}
	healthy := NewTCP()
	defer healthy.Close()
	rejected := func() uint64 { return server.Stats().reg.Counter("transport.frames.rejected").Value() }

	good, _ := AppendBody(nil, "c", listReq{Name: "n", Items: []string{"a", "b"}})
	hugeCount, _ := AppendBody(nil, "c", listReq{Name: "n"})
	binary.BigEndian.PutUint32(hugeCount[len(hugeCount)-12:], 1<<31) // Items' count
	var legacy bytes.Buffer
	gob.NewEncoder(&legacy).Encode(struct {
		From    string
		Payload any
	}{"c", echoReq{Msg: "hello"}})

	for _, tc := range []struct {
		name    string
		bytes   []byte
		cut     bool // the sender stops there: the server waits for the rest until then
		answers int
	}{
		{name: "garbage", bytes: []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")},
		{name: "legacy gob hello", bytes: legacy.Bytes()},
		{name: "another format version", bytes: append([]byte("PTW\x02"), frame(good)...)},
		{name: "oversize header", bytes: append([]byte(Preface), 0xFF, 0xFF, 0xFF, 0xFF)},
		{name: "one byte over the cap", bytes: binary.BigEndian.AppendUint32([]byte(Preface), MaxFrame+1)},
		{name: "frame cut mid-payload", bytes: append([]byte(Preface), frame(good)[:len(good)-3]...), cut: true},
		{name: "large frame that never arrives", bytes: append(binary.BigEndian.AppendUint32([]byte(Preface), MaxFrame), good...), cut: true},
		{name: "preface cut", bytes: []byte(Preface[:2]), cut: true},
		{name: "count larger than the frame", bytes: append([]byte(Preface), frame(hugeCount)...)},
		{name: "unknown tag", bytes: append([]byte(Preface), frame([]byte{0, 1, 'c', 0xEE, 0xEE})...)},
		{name: "trailing bytes", bytes: append([]byte(Preface), frame(append(bytes.Clone(good), 0))...)},
		{name: "good frame, then garbage", bytes: append(append([]byte(Preface), frame(good)...), "garbage!"...), answers: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := rejected()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)

			conn, err := net.Dial("tcp", string(addr))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.bytes); err != nil {
				t.Fatal(err)
			}
			if tc.cut {
				conn.(*net.TCPConn).CloseWrite()
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			answers, err := io.ReadAll(conn) // returns once the server has closed
			if err != nil && !errors.Is(err, syscall.ECONNRESET) {
				t.Fatalf("the server kept the connection: %v", err)
			}
			if got := bytes.Count(answers, []byte("\x00\x01a\x00\x01b")); got != tc.answers {
				t.Errorf("%d requests were answered (%q), want %d", got, answers, tc.answers)
			}

			runtime.ReadMemStats(&m1)
			if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<20 {
				t.Errorf("refusing it allocated %d bytes", grew)
			}
			if got := rejected() - before; got != 1 {
				t.Errorf("transport.frames.rejected grew by %d, want 1", got)
			}
			if resp, err := healthy.Call("h", addr, listReq{N: 1}); err != nil || resp.(listReq).N != 2 {
				t.Errorf("healthy connection afterwards: %+v, %v", resp, err)
			}
		})
	}
	if n := healthy.Stats().reg.Counter("transport.conn.stale").Value(); n != 0 {
		t.Errorf("the healthy caller lost %d connections", n)
	}
	// A connection that opens and closes without a byte is not a frame.
	before := rejected()
	conn, err := net.Dial("tcp", string(addr))
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if _, err := healthy.Call("h", addr, listReq{}); err != nil {
		t.Fatal(err)
	}
	if got := rejected() - before; got != 0 {
		t.Errorf("a port probe counted as %d rejected frames", got)
	}
}

// A caller that gets a malformed answer fails that call as a lost
// message, counts the frame, and drops the connection.
func TestMalformedResponseFailsTheCall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Read(make([]byte, 512))
			conn.Write(frame([]byte{0, 0, 0xEE, 0xEE})) // unknown tag
			conn.Close()
		}
	}()
	tr := NewTCP()
	defer tr.Close()
	_, err = tr.Call("client", Addr(ln.Addr().String()), listReq{})
	if !errors.Is(err, ErrUnreachable) || !strings.Contains(err.Error(), "unknown message tag") {
		t.Fatalf("err = %v", err)
	}
	if n := tr.Stats().reg.Counter("transport.frames.rejected").Value(); n != 1 {
		t.Errorf("transport.frames.rejected = %d, want 1", n)
	}
	if snap := tr.Stats().Snapshot(); snap.Drops != 1 || !snap.Conserves() {
		t.Errorf("stats = %+v", snap)
	}
}

// FuzzAuthFrame feeds arbitrary frames to the trailer check of an end
// that expects sequence number 1: nothing but the one frame sealed for
// that slot may open, and nothing may panic.
func FuzzAuthFrame(f *testing.F) {
	secret := []byte("s")
	sender := &authState{secret: secret}
	first := sender.seal(nil, []byte("first"))
	first = append([]byte("first"), first...)
	second := append([]byte("second"), sender.seal(nil, []byte("second"))...)
	f.Add(first)
	f.Add(second)
	f.Add(second[:len(second)-1])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := &authState{secret: secret, recvSeq: 1}
		body, err := a.open(data)
		if bytes.Equal(data, second) {
			if err != nil || string(body) != "second" {
				t.Fatalf("the genuine frame: %q, %v", body, err)
			}
			return
		}
		if !errors.Is(err, ErrBadMAC) || body != nil || a.recvSeq != 1 {
			t.Fatalf("a forged frame opened: %q, %v, next seq %d", body, err, a.recvSeq)
		}
	})
}
