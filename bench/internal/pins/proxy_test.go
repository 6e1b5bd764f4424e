package pins

import (
	"io"
	"net"
	"testing"
)

func TestProxyCountsAKnownFrame(t *testing.T) {
	// An echo server behind the proxy: a 100-byte frame goes in and
	// comes back, so the proxy must have carried exactly 200 bytes.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		io.Copy(c, c)
		c.Close()
	}()
	p, err := NewProxy(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 100)
	for i := range frame {
		frame[i] = byte(i)
	}
	if _, err := c.Write(frame); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, len(frame))
	if _, err := io.ReadFull(c, back); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if string(back) != string(frame) {
		t.Error("frame came back changed")
	}
	if got := p.Bytes(); got != 200 {
		t.Errorf("proxy counted %d bytes, want 200", got)
	}
}
