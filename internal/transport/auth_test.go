package transport

import (
	"bytes"
	"errors"
	"net"
	"testing"
)

func TestAuthenticatedRoundTrip(t *testing.T) {
	secret := []byte("shared-network-secret")
	tr := NewTCP()
	tr.Secret = secret
	defer tr.Close()
	addr, err := tr.RegisterAuto("127.0.0.1", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		resp, err := tr.Call("client", addr, echoReq{Msg: "auth"})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if resp.(echoResp).Msg != "auth" {
			t.Fatalf("resp = %+v", resp)
		}
	}
}

func TestMismatchedSecretRejected(t *testing.T) {
	server := NewTCP()
	server.Secret = []byte("right")
	defer server.Close()
	addr, err := server.RegisterAuto("127.0.0.1", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	client := NewTCP()
	client.Secret = []byte("wrong")
	defer client.Close()
	if _, err := client.Call("client", addr, echoReq{}); err == nil {
		t.Fatal("call with wrong secret succeeded")
	}
}

func TestUnauthenticatedClientRejected(t *testing.T) {
	server := NewTCP()
	server.Secret = []byte("right")
	defer server.Close()
	addr, err := server.RegisterAuto("127.0.0.1", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	client := NewTCP() // no secret: sends raw frames
	defer client.Close()
	if _, err := client.Call("client", addr, echoReq{}); err == nil {
		t.Fatal("unauthenticated call succeeded")
	}
}

// bufConn is the part of a net.Conn a wireConn uses, over a buffer: a
// sending end fills it, a receiving end drains it.
type bufConn struct {
	net.Conn
	buf *bytes.Buffer
}

func (c bufConn) Read(p []byte) (int, error)  { return c.buf.Read(p) }
func (c bufConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

// authEnds returns a dialling end that writes into wire and a function
// that makes an accepting end reading the given bytes.
func authEnds(secret []byte) (sender *wireConn, wire *bytes.Buffer, receiver func(stream []byte) *wireConn) {
	wire = new(bytes.Buffer)
	return newWireConn(bufConn{buf: wire}, secret, true), wire, func(stream []byte) *wireConn {
		return newWireConn(bufConn{buf: bytes.NewBuffer(stream)}, secret, false)
	}
}

func TestAuthCodecTamperDetected(t *testing.T) {
	sender, wire, receiver := authEnds([]byte("s"))
	if err := sender.send("a", echoReq{Msg: "x"}); err != nil {
		t.Fatal(err)
	}
	// Tamper: flip the last byte of the body, just before the trailer.
	tampered := bytes.Clone(wire.Bytes())
	tampered[len(tampered)-trailerLen-1] ^= 0xFF
	if _, _, err := receiver(tampered).recv(); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("tampered frame err = %v, want ErrBadMAC", err)
	}
	if _, _, err := receiver(wire.Bytes()).recv(); err != nil {
		t.Fatalf("untouched frame: %v", err)
	}
}

func TestAuthCodecReplayDetected(t *testing.T) {
	sender, wire, receiver := authEnds([]byte("s"))
	if err := sender.send("a", echoReq{Msg: "1"}); err != nil {
		t.Fatal(err)
	}
	// Replay: an attacker re-sends the captured frame on the same
	// stream.
	frame := wire.Bytes()[len(Preface):]
	r := receiver(append(bytes.Clone(wire.Bytes()), frame...))
	if _, _, err := r.recv(); err != nil {
		t.Fatalf("first frame: %v", err)
	}
	if _, _, err := r.recv(); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("replayed frame err = %v, want ErrBadMAC", err)
	}
}

func TestAuthCodecReorderDetected(t *testing.T) {
	sender, wire, receiver := authEnds([]byte("s"))
	sender.send("a", echoReq{Msg: "1"})
	first := bytes.Clone(wire.Bytes()[len(Preface):])
	sender.send("a", echoReq{Msg: "2"})
	second := wire.Bytes()[len(Preface)+len(first):]
	r := receiver(append(append([]byte(Preface), second...), first...))
	if _, _, err := r.recv(); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("frame 2 delivered first: err = %v, want ErrBadMAC", err)
	}
}

func TestAuthCodecSequencePreserved(t *testing.T) {
	sender, wire, receiver := authEnds([]byte("s"))
	for i := 0; i < 5; i++ {
		if err := sender.send("", echoResp{Msg: "m"}); err != nil {
			t.Fatal(err)
		}
	}
	r := receiver(wire.Bytes())
	for i := 0; i < 5; i++ {
		if _, resp, err := r.recv(); err != nil || resp != (echoResp{Msg: "m"}) {
			t.Fatalf("frame %d: %v, %v", i, resp, err)
		}
	}
}
