package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"peertrack/internal/telemetry"
)

// TCP is a real-network Network implementation: length-prefixed frames
// (see wireConn) over persistent TCP connections with a small
// per-destination connection pool, one request in flight per
// connection. Handlers run in per-connection goroutines and must be
// concurrency-safe.
type TCP struct {
	mu        sync.Mutex
	listeners map[Addr]net.Listener
	pools     map[Addr]*connPool
	accepted  map[net.Conn]struct{}
	closed    bool

	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// CallTimeout bounds a full round trip (default 10s). A live node
	// sets it to its per-attempt bound (NodeOptions.RPCAttemptTimeout).
	CallTimeout time.Duration
	// Secret, when non-nil, enables HMAC-SHA256 frame authentication
	// with sequence numbers (see auth.go). All peers must share it. Set
	// before Register/Call.
	Secret []byte

	stats *Stats
	wg    sync.WaitGroup
}

// NewTCP creates a TCP transport.
func NewTCP() *TCP {
	return &TCP{
		listeners:   make(map[Addr]net.Listener),
		pools:       make(map[Addr]*connPool),
		accepted:    make(map[net.Conn]struct{}),
		DialTimeout: 5 * time.Second,
		CallTimeout: 10 * time.Second,
		stats:       newStats(nil),
	}
}

// Register implements Network: it binds a TCP listener on addr and
// serves requests to h. The address must include a concrete port; use
// RegisterAuto to bind an ephemeral port.
func (t *TCP) Register(addr Addr, h Handler) error {
	ln, err := net.Listen("tcp", string(addr))
	if err != nil {
		return fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		ln.Close()
		return errors.New("transport: network closed")
	}
	t.listeners[addr] = ln
	t.mu.Unlock()

	t.wg.Add(1)
	go t.serve(ln, h)
	return nil
}

// RegisterAuto binds an ephemeral port on host (e.g. "127.0.0.1") and
// returns the concrete address peers should dial.
func (t *TCP) RegisterAuto(host string, h Handler) (Addr, error) {
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return "", fmt.Errorf("transport: listen %s: %w", host, err)
	}
	addr := Addr(ln.Addr().String())
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		ln.Close()
		return "", errors.New("transport: network closed")
	}
	t.listeners[addr] = ln
	t.mu.Unlock()

	t.wg.Add(1)
	go t.serve(ln, h)
	return addr, nil
}

func (t *TCP) serve(ln net.Listener, h Handler) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.accepted[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			defer func() {
				conn.Close()
				t.mu.Lock()
				delete(t.accepted, conn)
				t.mu.Unlock()
			}()
			c := newWireConn(conn, t.Secret, false)
			for {
				from, req, err := c.recv()
				if err != nil {
					t.countRejected(err)
					return
				}
				resp, herr := t.contain(h, Addr(from), req)
				errText := ""
				if herr != nil {
					resp, errText = nil, herr.Error()
				}
				if c.send(errText, resp) != nil {
					return
				}
			}
		}()
	}
}

// contain runs the handler on one request and turns a panic into the
// error the caller receives as a RemoteError, counted in
// transport.handler.panics (created on the first one): one bad request
// must not take the daemon down with every other peer's connections.
func (t *TCP) contain(h Handler, from Addr, req any) (payload any, err error) {
	defer func() {
		if r := recover(); r != nil {
			t.stats.reg.Counter("transport.handler.panics").Inc()
			payload, err = nil, fmt.Errorf("handler panic on %T: %v", req, r)
		}
	}()
	return h(from, req)
}

// countRejected counts a frame refused for what it contained, in
// transport.frames.rejected (created on the first one, like
// transport.handler.panics). A connection that merely ended is not one.
func (t *TCP) countRejected(err error) {
	if errors.Is(err, ErrBadFrame) || errors.Is(err, ErrBadMAC) {
		t.stats.reg.Counter("transport.frames.rejected").Inc()
	}
}

// Unregister implements Network.
func (t *TCP) Unregister(addr Addr) {
	t.mu.Lock()
	ln := t.listeners[addr]
	delete(t.listeners, addr)
	t.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
}

// Stats implements Network.
func (t *TCP) Stats() *Stats { return t.stats }

// SetTelemetry re-points the accounting at reg, exactly like
// Memory.SetTelemetry. Wire it before traffic starts.
func (t *TCP) SetTelemetry(reg *telemetry.Registry) {
	*t.stats = *newStats(reg)
}

// Call implements Network. Failures are accounted exactly like the
// in-memory transport's fault paths so the two transports agree
// byte-for-byte in Snapshot semantics: a dial failure means the
// destination is structurally unreachable (blocked — the request never
// left this node's pool, but we charge the attempt the same way Memory
// charges a call into a partition), while a send or receive error after
// a connection existed is a message lost in flight (dropped — one
// request message on the wire, no response).
func (t *TCP) Call(from, to Addr, req any) (any, error) {
	start := t.stats.begin()
	pool := t.pool(to)
	for tries := 0; ; tries++ {
		c, err := pool.get(t.DialTimeout)
		if err != nil {
			t.stats.record(blocked, req, nil, start)
			return nil, fmt.Errorf("%w: %s (%v)", ErrUnreachable, to, err)
		}
		resp, errText, stale, rerr := t.roundTrip(pool, c, from, req)
		if rerr != nil {
			if stale && tries <= poolIdleConns {
				// A pooled connection died while idle — the usual cause is
				// the peer restarting on the same address, which leaves
				// every pooled conn half-closed. That is a pool artifact,
				// not a network event, so it is not billed as a call (the
				// Memory transport has no analogue and fault-accounting
				// parity must hold); retry on a fresh connection, bounded
				// by the pool depth plus one guaranteed fresh dial.
				t.stats.stale.Inc()
				continue
			}
			t.stats.record(dropped, req, nil, start)
			return nil, fmt.Errorf("%w: %s (%v)", ErrUnreachable, to, rerr)
		}
		if errText != "" {
			t.stats.record(answeredErr, req, resp, start)
			return nil, &RemoteError{Msg: errText}
		}
		t.stats.record(answered, req, resp, start)
		return resp, nil
	}
}

// roundTrip performs one request/response exchange on c, returning the
// connection to the pool on success and closing it on failure. stale
// reports a reused pooled connection failing with an immediate
// connection error (not a timeout) — the signature of a peer that went
// away while the conn sat idle; such requests were never processed and
// are safe to replay on a fresh connection.
func (t *TCP) roundTrip(pool *connPool, c *wireConn, from Addr, req any) (resp any, errText string, stale bool, err error) {
	c.conn.SetDeadline(time.Now().Add(t.CallTimeout))
	if err = c.send(string(from), req); err == nil {
		errText, resp, err = c.recv()
	}
	if err != nil {
		t.countRejected(err)
		c.conn.Close()
		return nil, "", c.reused && !isTimeout(err), err
	}
	c.conn.SetDeadline(time.Time{})
	pool.put(c)
	return resp, errText, false, nil
}

// isTimeout reports whether err is a deadline expiry rather than a
// connection error. Timeouts on reused connections are real lost calls
// (the peer may have received the request), never stale-conn artifacts.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func (t *TCP) pool(to Addr) *connPool {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.pools[to]
	if !ok {
		p = &connPool{addr: to, secret: t.Secret, idle: make(chan *wireConn, poolIdleConns)}
		t.pools[to] = p
	}
	return p
}

// Close shuts down all listeners and pooled connections and waits for
// server goroutines to exit.
func (t *TCP) Close() {
	t.mu.Lock()
	t.closed = true
	for _, ln := range t.listeners {
		ln.Close()
	}
	t.listeners = make(map[Addr]net.Listener)
	for c := range t.accepted {
		c.Close()
	}
	pools := t.pools
	t.pools = make(map[Addr]*connPool)
	t.mu.Unlock()
	for _, p := range pools {
		p.drain()
	}
	t.wg.Wait()
}

// poolIdleConns is the per-destination idle connection cap.
const poolIdleConns = 4

// connPool keeps a few idle connections per destination.
type connPool struct {
	addr   Addr
	secret []byte
	idle   chan *wireConn
}

func (p *connPool) get(dialTimeout time.Duration) (*wireConn, error) {
	select {
	case c := <-p.idle:
		c.reused = true
		return c, nil
	default:
	}
	conn, err := net.DialTimeout("tcp", string(p.addr), dialTimeout)
	if err != nil {
		return nil, err
	}
	return newWireConn(conn, p.secret, true), nil
}

func (p *connPool) put(c *wireConn) {
	select {
	case p.idle <- c:
	default:
		c.conn.Close()
	}
}

func (p *connPool) drain() {
	for {
		select {
		case c := <-p.idle:
			c.conn.Close()
		default:
			return
		}
	}
}

// The frame. Every message is `u32 length | body`, the length counting
// what follows it. A request body is `from | u16 tag | payload`, a
// response body `err | u16 tag | payload` (from and err are strings, an
// empty err meaning success), so both directions share one writer and
// one parser; the payload is in wire.go. With a Secret the body is
// followed, inside the length, by the trailer of auth.go. The dialling
// end opens a connection with a 4-byte preface in the same write as its
// first request, and the accepting end refuses anything else: a peer
// speaking another protocol, or another version of this one, is turned
// away by name instead of having its first bytes read as a length.

// Preface is the magic and the format version. Any change to the frame
// or to a released layout bumps it: nodes of different versions do not
// interoperate, nor read each other's snapshots (core.Peer.Snapshot).
const Preface = "PTW\x01"

// MaxFrame caps the length a frame may declare, checked before anything
// is allocated for it. The largest legitimate frame is a whole-unit
// mirror push (core.repoMirrorReq with Full set): a node's repository at
// about 80 bytes a visit — object id, two node names, a time stamp and
// the length prefixes. The benchmark's largest repository is 16 000
// objects × 15 hops ÷ 16 nodes = 15 000 visits, 1.2 MB; 64 MiB carries
// 800 000 visits of one node, fifty times that, and is a sixteenth of the
// 1 GiB gob allowed. A unit that outgrows it needs chunked pushes, which
// nothing builds yet; its sender gets an error that says so.
const MaxFrame = 64 << 20

var (
	errPreface  = fmt.Errorf("%w: the peer does not speak wire format %q", ErrBadFrame, Preface)
	errOversize = fmt.Errorf("%w: declared length exceeds MaxFrame", ErrBadFrame)
)

const (
	// readChunk is the least a frame buffer grows to once a frame does not
	// fit it: the buffer then doubles with the bytes that have arrived, so
	// a header cannot make a node allocate what its sender never sends.
	readChunk = 4 << 10
	// keepBuffer is the largest frame buffer a connection keeps between
	// messages; a rare large frame (a whole-unit push) does not stay
	// pinned to the pooled connection it crossed.
	keepBuffer = 64 << 10
)

// wireConn is one end of a connection: the socket, its buffered reader,
// the two frame buffers it reuses, and the per-connection state of the
// HMAC trailer and the gob carrier. One goroutine uses it at a time (the
// pool hands a connection to one caller; a server goroutine owns its
// accepted one). reused marks a dialled connection handed out of the idle
// pool at least once: only those can be "stale" (dead since the peer
// restarted).
type wireConn struct {
	conn        net.Conn
	br          *bufio.Reader
	wbuf        []byte
	rbuf        []byte
	auth        *authState // nil without a Secret
	gobs        gobOut     // the carrier's encoder, for what this end sends
	in          bodyParser // for what it receives
	sendPreface bool       // dialling end, until its first message
	wantPreface bool       // accepting end, until its first message
	reused      bool
}

func newWireConn(conn net.Conn, secret []byte, dialed bool) *wireConn {
	c := &wireConn{conn: conn, br: bufio.NewReaderSize(conn, readChunk), sendPreface: dialed, wantPreface: !dialed}
	if secret != nil {
		c.auth = &authState{secret: secret}
	}
	return c
}

// send writes one message — head is the request's sender or the
// response's error text — with a single Write out of the connection's
// buffer.
func (c *wireConn) send(head string, payload any) error {
	b := c.wbuf[:0]
	if c.sendPreface {
		b, c.sendPreface = append(b, Preface...), false
	}
	start := len(b) + 4
	b, err := appendBody(AppendU32(b, 0), head, payload, &c.gobs)
	if err != nil {
		return err
	}
	if c.auth != nil {
		b = c.auth.seal(b, b[start:])
	}
	if len(b)-start > MaxFrame {
		return fmt.Errorf("transport: a %T frame of %d bytes exceeds MaxFrame (%d): the unit needs chunked pushes", payload, len(b)-start, MaxFrame)
	}
	binary.BigEndian.PutUint32(b[start-4:], uint32(len(b)-start))
	_, err = c.conn.Write(b)
	c.wbuf = kept(b)
	return err
}

// kept is b as the buffer to reuse for the next message, unless it grew
// beyond keepBuffer.
func kept(b []byte) []byte {
	if cap(b) > keepBuffer {
		return nil
	}
	return b
}

// recv reads one message. Whatever it returns is freshly allocated: the
// frame buffer is overwritten by the next message.
func (c *wireConn) recv() (head string, payload any, err error) {
	if c.wantPreface {
		p, err := c.br.Peek(len(Preface))
		switch {
		case len(p) == 0 && err != nil:
			return "", nil, err // closed before a byte: a port probe, not a frame
		case string(p) != Preface[:len(p)], err == io.EOF:
			return "", nil, errPreface
		case err != nil:
			return "", nil, err
		}
		c.br.Discard(len(Preface))
		c.wantPreface = false
	}
	hdr, err := c.br.Peek(4)
	if err != nil {
		if len(hdr) > 0 && err == io.EOF {
			err = errTruncated
		}
		return "", nil, err // io.EOF with no byte read: the peer closed between messages
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return "", nil, errOversize
	}
	c.br.Discard(4)
	body, err := c.readBody(int(n))
	if err == nil && c.auth != nil {
		body, err = c.auth.open(body)
	}
	if err != nil {
		return "", nil, err
	}
	return c.in.parse(body)
}

// readBody reads the n bytes of a frame body into the connection's
// buffer, growing it only as fast as bytes arrive.
func (c *wireConn) readBody(n int) ([]byte, error) {
	buf := c.rbuf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			next := 2 * cap(buf)
			if next < n {
				next = min(n, max(next, readChunk))
			}
			buf = append(make([]byte, 0, next), buf...)
		}
		m, err := io.ReadFull(c.br, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+m]
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = errTruncated
		}
		if err != nil {
			return nil, err
		}
	}
	c.rbuf = kept(buf)
	return buf, nil
}
