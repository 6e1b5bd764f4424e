package transport

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"peertrack/internal/telemetry"
)

// rpcRequest is the wire envelope for a call. Payload concrete types
// must be gob-registered via Register.
type rpcRequest struct {
	From    Addr
	Payload any
}

// rpcResponse is the wire envelope for a reply.
type rpcResponse struct {
	Payload any
	Err     string
}

// TCP is a real-network Network implementation: length-delimited gob
// frames over persistent TCP connections with a small per-destination
// connection pool. Handlers run in per-connection goroutines and must be
// concurrency-safe.
type TCP struct {
	mu        sync.Mutex
	listeners map[Addr]net.Listener
	pools     map[Addr]*connPool
	accepted  map[net.Conn]struct{}
	closed    bool

	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// CallTimeout bounds a full round trip (default 10s).
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
			dec := gob.NewDecoder(conn)
			enc := gob.NewEncoder(conn)
			var ac *authCodec
			if t.Secret != nil {
				ac = newAuthCodec(t.Secret, enc, dec)
			}
			for {
				var req rpcRequest
				var err error
				if ac != nil {
					err = ac.recv(&req)
				} else {
					err = dec.Decode(&req)
				}
				if err != nil {
					return
				}
				var resp rpcResponse
				payload, herr := t.contain(h, req)
				if herr != nil {
					resp.Err = herr.Error()
				} else {
					resp.Payload = payload
				}
				if ac != nil {
					err = ac.send(&resp)
				} else {
					err = enc.Encode(&resp)
				}
				if err != nil {
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
func (t *TCP) contain(h Handler, req rpcRequest) (payload any, err error) {
	defer func() {
		if r := recover(); r != nil {
			t.stats.reg.Counter("transport.handler.panics").Inc()
			payload, err = nil, fmt.Errorf("handler panic on %T: %v", req.Payload, r)
		}
	}()
	return h(req.From, req.Payload)
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
	return t.call(from, to, req, t.CallTimeout)
}

// CallWithTimeout implements DeadlineCaller: like Call but with an
// explicit round-trip deadline for this call only (<= 0 falls back to
// CallTimeout).
func (t *TCP) CallWithTimeout(from, to Addr, req any, timeout time.Duration) (any, error) {
	if timeout <= 0 {
		timeout = t.CallTimeout
	}
	return t.call(from, to, req, timeout)
}

// StaleConns reports how many pooled connections were detected dead on
// reuse (typically after the peer restarted) and transparently replaced.
func (t *TCP) StaleConns() uint64 { return t.stats.stale.Value() }

func (t *TCP) call(from, to Addr, req any, callTimeout time.Duration) (any, error) {
	start := t.stats.begin()
	pool := t.pool(to)
	for tries := 0; ; tries++ {
		c, err := pool.get(t.DialTimeout)
		if err != nil {
			t.stats.record(blocked, req, nil, start)
			return nil, fmt.Errorf("%w: %s (%v)", ErrUnreachable, to, err)
		}
		resp, stale, rerr := t.roundTrip(pool, c, from, req, callTimeout)
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
		if resp.Err != "" {
			t.stats.record(answeredErr, req, resp.Payload, start)
			return nil, &RemoteError{Msg: resp.Err}
		}
		t.stats.record(answered, req, resp.Payload, start)
		return resp.Payload, nil
	}
}

// roundTrip performs one request/response exchange on c, returning the
// connection to the pool on success and closing it on failure. stale
// reports a reused pooled connection failing with an immediate
// connection error (not a timeout) — the signature of a peer that went
// away while the conn sat idle; such requests were never processed and
// are safe to replay on a fresh connection.
func (t *TCP) roundTrip(pool *connPool, c *clientConn, from Addr, req any, callTimeout time.Duration) (rpcResponse, bool, error) {
	c.conn.SetDeadline(time.Now().Add(callTimeout))
	var sendErr error
	if c.auth != nil {
		sendErr = c.auth.send(&rpcRequest{From: from, Payload: req})
	} else {
		sendErr = c.enc.Encode(&rpcRequest{From: from, Payload: req})
	}
	if sendErr != nil {
		c.conn.Close()
		return rpcResponse{}, c.reused && !isTimeout(sendErr), sendErr
	}
	var resp rpcResponse
	var recvErr error
	if c.auth != nil {
		recvErr = c.auth.recv(&resp)
	} else {
		recvErr = c.dec.Decode(&resp)
	}
	if recvErr != nil {
		c.conn.Close()
		return rpcResponse{}, c.reused && !isTimeout(recvErr), recvErr
	}
	c.conn.SetDeadline(time.Time{})
	pool.put(c)
	return resp, false, nil
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
		p = &connPool{addr: to, secret: t.Secret, idle: make(chan *clientConn, poolIdleConns)}
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

// clientConn is a pooled outbound connection with its codec pair.
// reused marks a connection handed out of the idle pool at least once:
// only those can be "stale" (dead since the peer restarted).
type clientConn struct {
	conn   net.Conn
	enc    *gob.Encoder
	dec    *gob.Decoder
	auth   *authCodec
	reused bool
}

// poolIdleConns is the per-destination idle connection cap.
const poolIdleConns = 4

// connPool keeps a few idle connections per destination.
type connPool struct {
	addr   Addr
	secret []byte
	idle   chan *clientConn
}

func (p *connPool) get(dialTimeout time.Duration) (*clientConn, error) {
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
	c := &clientConn{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
	if p.secret != nil {
		c.auth = newAuthCodec(p.secret, c.enc, c.dec)
	}
	return c, nil
}

func (p *connPool) put(c *clientConn) {
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
