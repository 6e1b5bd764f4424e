package pins

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Proxy is a loopback TCP forwarder that counts the bytes it carries in
// both directions: what a P2P call really puts on the wire, to set
// beside the bytes the transport's Stats declare for it.
type Proxy struct {
	ln     net.Listener
	target string
	bytes  atomic.Int64

	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

// NewProxy listens on an ephemeral loopback port and forwards every
// connection to target.
func NewProxy(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// Addr is the address to dial instead of the target.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Bytes is the number of bytes carried so far, both directions summed.
func (p *Proxy) Bytes() int64 { return p.bytes.Load() }

func (p *Proxy) accept() {
	defer p.wg.Done()
	for {
		in, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		out, err := net.Dial("tcp", p.target)
		if err != nil {
			in.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, in, out)
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pipe(out, in)
		go p.pipe(in, out)
	}
}

// pipe copies src to dst, counting, and closes both when src ends so
// the opposite pipe ends too.
func (p *Proxy) pipe(dst, src net.Conn) {
	defer p.wg.Done()
	io.Copy(dst, countingReader{src, &p.bytes}) // ends on close of either side
	dst.Close()
	src.Close()
}

type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c countingReader) Read(b []byte) (int, error) {
	n, err := c.r.Read(b)
	c.n.Add(int64(n))
	return n, err
}

// Close stops the proxy and waits for its goroutines.
func (p *Proxy) Close() {
	p.ln.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}
