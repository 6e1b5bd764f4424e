package ctlapi

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"peertrack/internal/telemetry"
)

// Every client method, and every error reply, must leave its connection
// reusable: the whole session rides the one connection the first call
// dialed. The count is read the way an operator reads it, from the
// http.conns.opened counter CountConns feeds.
func TestEveryCallReusesItsConnection(t *testing.T) {
	b := newFake()
	reg := telemetry.New(nil)
	srv := httptest.NewUnstartedServer(HandlerWithTelemetry(b, nil, reg))
	srv.Config.ConnState = CountConns(reg)
	srv.Start()
	defer srv.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c := &Client{Base: srv.URL, HTTPClient: &http.Client{Transport: tr}}

	const obj = "urn:epc:id:sgtin:0614141.107346.2017"
	at := time.Unix(1700000000, 0)
	// The 100 observes leave a trace too long for one write, so the
	// trace replies are chunked: the decoder stops at the closing brace,
	// short of the terminating chunk.
	for _, call := range []struct {
		name string
		fn   func() error
	}{
		{"Observe", func() error { return c.Observe(obj) }},
		{"ObserveAt", func() error { return c.ObserveAt(obj, at) }},
		{"Pack", func() error { return c.Pack("pallet", []string{obj}) }},
		{"Unpack", func() error { return c.Unpack("pallet", []string{obj}) }},
		{"Snapshot", func() error { _, err := c.Snapshot(); return err }},
		{"Locate", func() error { _, err := c.Locate(obj, at); return err }},
		{"Trace", func() error { _, err := c.Trace(obj); return err }},
		{"TraceBetween", func() error { _, err := c.TraceBetween(obj, at.Add(-time.Hour), time.Time{}); return err }},
		{"ResolveTrace", func() error { _, err := c.ResolveTrace(obj); return err }},
		{"Predict", func() error { _, err := c.Predict(obj); return err }},
		{"Inventory", func() error { _, err := c.Inventory(); return err }},
		{"Status", func() error { _, err := c.Status(); return err }},
	} {
		for i := 0; i < 50; i++ {
			if err := call.fn(); err != nil {
				t.Fatalf("%s #%d: %v", call.name, i, err)
			}
		}
	}

	fail := func(msg string) {
		b.mu.Lock()
		b.failNext = errors.New(msg)
		b.mu.Unlock()
	}
	for i := 0; i < 10; i++ {
		if err := c.Observe(""); err == nil || !strings.Contains(err.Error(), "400") {
			t.Fatalf("empty object: %v, want a 400", err)
		}
		if _, err := c.Locate("ghost", time.Time{}); !errors.Is(err, ErrNotTracked) {
			t.Fatalf("unknown object: %v, want ErrNotTracked", err)
		}
		fail("disk full")
		if err := c.Observe(obj); err == nil || !strings.Contains(err.Error(), "500") {
			t.Fatalf("failing backend: %v, want a 500", err)
		}
		// An error text the client keeps only the head of.
		fail(strings.Repeat("x", 3*errTextLimit))
		if err := c.Observe(obj); err == nil || len(err.Error()) > 2*errTextLimit {
			t.Fatalf("long error reply: %.80v, want a 500 cut to %d bytes", err, errTextLimit)
		}
	}
	if _, err := c.Status(); err != nil {
		t.Fatal(err)
	}

	if opened := reg.Counter("http.conns.opened").Value(); opened != 1 {
		t.Fatalf("http.conns.opened = %d over %d requests, want 1",
			opened, reg.Counter("http.requests").Value())
	}
}

// notifyConn reports its Close on closed, without waiting for a reader.
type notifyConn struct {
	net.Conn
	closed chan<- struct{}
}

func (c notifyConn) Close() error {
	select {
	case c.closed <- struct{}{}:
	default:
	}
	return c.Conn.Close()
}

// A daemon restarted behind a kept-alive connection: the client drops
// the dead connection, retries the refused dial until the daemon is
// back, and no event is delivered twice — /observe is not idempotent,
// so a replayed POST would record a second visit.
func TestRestartedDaemonBehindKeptAliveConnection(t *testing.T) {
	b := newFake()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := &http.Server{Handler: Handler(b)}
	go srv.Serve(ln)

	var dials atomic.Int32
	closed := make(chan struct{}, 1) // the close may come before the test waits for it
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := new(net.Dialer).DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		dials.Add(1)
		return notifyConn{conn, closed}, nil
	}}
	defer tr.CloseIdleConnections()

	restarted := &http.Server{Handler: Handler(b)}
	defer restarted.Close()
	slept := 0
	c := &Client{
		Base:         "http://" + addr,
		HTTPClient:   &http.Client{Transport: tr},
		Retries:      5,
		RetryBackoff: time.Millisecond,
		// The daemon comes back from inside the first retry's sleep, so
		// the first attempt is sure to have been refused.
		Sleep: func(time.Duration) {
			if slept++; slept == 1 {
				serveOn(t, restarted, addr)
			}
		},
	}

	at := time.Unix(1700000000, 0)
	for _, obj := range []string{"before-1", "before-2"} {
		if err := c.ObserveAt(obj, at); err != nil {
			t.Fatal(err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d dials for two events, want 1: the connection was not kept alive", n)
	}

	srv.Close()
	// The transport has seen the server go once it closes its end; until
	// then it could still write the next POST into the dead connection.
	<-closed

	if err := c.ObserveAt("after", at); err != nil {
		t.Fatalf("observe across the restart: %v", err)
	}
	if slept == 0 {
		t.Fatal("client never slept: the dial after the restart cannot have been refused")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, obj := range []string{"before-1", "before-2", "after"} {
		if n := len(b.observed[obj]); n != 1 {
			t.Errorf("backend saw %s %d times, want once", obj, n)
		}
	}
}

// The node reads at most maxBodyBytes of a POST body; more is a 413 and
// reaches the backend as nothing.
func TestOversizedBodyIs413(t *testing.T) {
	b, c := setup(t)
	huge := strings.Repeat("x", maxBodyBytes)
	for path, body := range map[string]string{
		"/observe": `{"object":"` + huge + `"}`,
		"/pack":    `{"parent":"pallet","children":["` + huge + `"]}`,
	} {
		resp, err := c.http().Post(c.Base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body: status %d, want 413", path, len(body), resp.StatusCode)
		}
	}
	if len(b.observed) != 0 || b.packs != 0 {
		t.Errorf("oversized requests reached the backend: %d objects, %d packs", len(b.observed), b.packs)
	}
	// Malformed JSON within the bound is still a 400.
	resp, err := c.http().Post(c.Base+"/observe", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
}
