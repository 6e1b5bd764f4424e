package transport

import (
	"errors"
	"testing"
	"time"
)

// Pooled connections must survive a peer restart transparently: after
// the remote listener dies and a new process binds the same address,
// the pool's idle connections are half-closed corpses. The transport
// must detect the stale conn on reuse, replace it with a fresh dial,
// and complete the call — without billing the stale attempt, so fault
// accounting stays parity-identical with the Memory transport (which
// has no connection pool to go stale).
func TestPooledConnReuseAcrossRestart(t *testing.T) {
	client := NewTCP()
	client.DialTimeout = 2 * time.Second
	client.CallTimeout = 5 * time.Second
	defer client.Close()

	server1 := NewTCP()
	addr, err := server1.RegisterAuto("127.0.0.1", echoHandler)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := client.Call("client", addr, echoReq{Msg: "one"}); err != nil {
		t.Fatalf("call before restart: %v", err)
	}

	// "Restart" the peer: tear the old process down and bind a fresh
	// transport to the same address (same identity).
	server1.Close()
	server2 := NewTCP()
	defer server2.Close()
	for i := 0; ; i++ {
		if err = server2.Register(addr, echoHandler); err == nil {
			break
		}
		if i == 50 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The pooled conn is now stale; the call must still succeed.
	resp, err := client.Call("client", addr, echoReq{Msg: "two"})
	if err != nil {
		t.Fatalf("call after restart: %v", err)
	}
	if resp.(echoResp).Msg != "two" {
		t.Fatalf("resp = %+v", resp)
	}
	if got := client.Stats().reg.Counter("transport.conn.stale").Value(); got < 1 {
		t.Errorf("transport.conn.stale = %d, want >= 1", got)
	}

	// Parity: the same two successful calls on Memory must account
	// identically — the stale-conn replacement is invisible to Stats.
	mem := NewMemory(1)
	mem.Register("client", echoHandler)
	mem.Register("server", echoHandler)
	for _, msg := range []string{"one", "two"} {
		if _, err := mem.Call("client", "server", echoReq{Msg: msg}); err != nil {
			t.Fatal(err)
		}
	}
	tcpSnap := client.Stats().Snapshot()
	memSnap := mem.Stats().Snapshot()
	if tcpSnap != memSnap {
		t.Errorf("fault accounting diverged across restart:\n tcp %+v\n mem %+v", tcpSnap, memSnap)
	}
	if !tcpSnap.Conserves() {
		t.Errorf("tcp accounting does not conserve: %+v", tcpSnap)
	}
}

// A peer that is down (not restarted) still fails the call after the
// stale conn is discarded: the redial path must not mask real outages.
func TestStaleConnThenDeadPeer(t *testing.T) {
	client := NewTCP()
	client.DialTimeout = time.Second
	defer client.Close()

	server := NewTCP()
	addr, err := server.RegisterAuto("127.0.0.1", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Call("client", addr, echoReq{Msg: "x"}); err != nil {
		t.Fatal(err)
	}
	server.Close()

	if _, err := client.Call("client", addr, echoReq{Msg: "y"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	// One success, then one failure billed as blocked (the redial after
	// the stale conn could not establish a connection).
	snap := client.Stats().Snapshot()
	if snap.Calls != 2 || snap.Blocked != 1 || snap.Drops != 0 {
		t.Errorf("accounting = %+v, want 2 calls, 1 blocked, 0 drops", snap)
	}
	if !snap.Conserves() {
		t.Errorf("accounting does not conserve: %+v", snap)
	}
}

// CallTimeout cuts a stalled round trip short, and the loss is billed
// as a drop (request sent, no response) — the same taxonomy Memory uses
// for in-flight loss. A live node sets it to its per-attempt bound.
func TestCallTimeout(t *testing.T) {
	tcp := NewTCP()
	tcp.CallTimeout = 100 * time.Millisecond
	defer tcp.Close()
	release := make(chan struct{})
	defer close(release)
	stall := func(from Addr, req any) (any, error) {
		<-release
		return echoResp{}, nil
	}
	addr, err := tcp.RegisterAuto("127.0.0.1", stall)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = tcp.Call("client", addr, echoReq{Msg: "x"})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline not applied: call took %v", elapsed)
	}
	snap := tcp.Stats().Snapshot()
	if snap.Drops != 1 {
		t.Errorf("accounting = %+v, want 1 drop", snap)
	}
}
