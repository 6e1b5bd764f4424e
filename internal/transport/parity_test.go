package transport

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"peertrack/internal/telemetry"
)

// refusedAddr returns an address that actively refuses connections: a
// listener is bound to reserve the port and immediately closed.
func refusedAddr(t *testing.T) Addr {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := Addr(ln.Addr().String())
	ln.Close()
	return addr
}

// Both transports must bill a structurally unreachable destination the
// same way: one call, one request message on the wire, one failure,
// counted as blocked. For Memory that is a call to an unregistered
// name; for TCP it is a dial failure.
func TestFaultAccountingParityBlocked(t *testing.T) {
	mem := NewMemory(1)
	mem.Register("a", echoHandler)
	if _, err := mem.Call("a", "ghost", echoReq{Msg: "x"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("memory err = %v, want ErrUnreachable", err)
	}

	tcp := NewTCP()
	tcp.DialTimeout = 2 * time.Second
	defer tcp.Close()
	if _, err := tcp.Call("client", refusedAddr(t), echoReq{Msg: "x"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("tcp err = %v, want ErrUnreachable", err)
	}

	memSnap := mem.Stats().Snapshot()
	tcpSnap := tcp.Stats().Snapshot()
	want := Snapshot{Calls: 1, Messages: 1, Bytes: DefaultMsgSize, Failures: 1, Blocked: 1}
	if memSnap != want {
		t.Errorf("memory blocked accounting = %+v, want %+v", memSnap, want)
	}
	if tcpSnap != want {
		t.Errorf("tcp blocked accounting = %+v, want %+v", tcpSnap, want)
	}
	if !memSnap.Conserves() || !tcpSnap.Conserves() {
		t.Error("blocked accounting does not conserve")
	}
}

// Both transports must bill a message lost in flight the same way: one
// call, one request message, one failure, counted as a drop. For
// Memory that is random loss at rate 1; for TCP it is a call timeout —
// the request was sent, the response never arrived.
func TestFaultAccountingParityDropped(t *testing.T) {
	mem := NewMemory(1)
	mem.Register("a", echoHandler)
	mem.Register("b", echoHandler)
	if err := mem.SetDropRate(1); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Call("a", "b", echoReq{Msg: "x"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("memory err = %v, want ErrUnreachable", err)
	}

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
	if _, err := tcp.Call("client", addr, echoReq{Msg: "x"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("tcp err = %v, want ErrUnreachable", err)
	}

	memSnap := mem.Stats().Snapshot()
	tcpSnap := tcp.Stats().Snapshot()
	want := Snapshot{Calls: 1, Messages: 1, Bytes: DefaultMsgSize, Failures: 1, Drops: 1}
	if memSnap != want {
		t.Errorf("memory drop accounting = %+v, want %+v", memSnap, want)
	}
	if tcpSnap != want {
		t.Errorf("tcp drop accounting = %+v, want %+v", tcpSnap, want)
	}
	if !memSnap.Conserves() || !tcpSnap.Conserves() {
		t.Error("drop accounting does not conserve")
	}
}

// A transport records into the wired registry: the Stats fault taxonomy,
// message and byte totals, and the per-message-type breakdown.
func TestTransportTelemetry(t *testing.T) {
	reg := telemetry.New(nil)
	mem := NewMemory(1)
	mem.SetTelemetry(reg)
	mem.Register("a", echoHandler)
	mem.Register("b", echoHandler)

	if _, err := mem.Call("a", "b", echoReq{Msg: "hi"}); err != nil {
		t.Fatal(err)
	}
	mem.Call("a", "ghost", echoReq{}) // blocked
	mem.SetDropRate(1)
	mem.Call("a", "b", bigReq{N: 10}) // dropped

	get := func(name string) uint64 { return reg.Counter(name).Value() }
	if got := get("transport.calls"); got != 3 {
		t.Errorf("transport.calls = %d, want 3", got)
	}
	if get("transport.failures") != 2 || get("transport.drops") != 1 || get("transport.blocked") != 1 {
		t.Errorf("failure taxonomy = fail %d drop %d block %d, want 2/1/1",
			get("transport.failures"), get("transport.drops"), get("transport.blocked"))
	}
	if got := get("transport.call.type.transport.echoReq"); got != 2 {
		t.Errorf("per-type echoReq = %d, want 2", got)
	}
	if got := get("transport.call.type.transport.bigReq"); got != 1 {
		t.Errorf("per-type bigReq = %d, want 1", got)
	}
	text := reg.Snapshot().Text()
	if !strings.Contains(text, "counter transport.calls 3\n") {
		t.Errorf("exposition missing calls counter:\n%s", text)
	}
	// Stats is a view over the same instruments, not a second store.
	view := Snapshot{
		Messages: get("transport.messages"), Bytes: get("transport.bytes"),
		Calls: get("transport.calls"), Failures: get("transport.failures"),
		Drops: get("transport.drops"), Blocked: get("transport.blocked"),
	}
	if snap := mem.Stats().Snapshot(); snap != view || snap.Messages != 4 || !snap.Conserves() {
		t.Errorf("Stats().Snapshot() = %+v, registry reads %+v (want equal, 4 messages)", snap, view)
	}

	// TCP shares the same wiring.
	treg := telemetry.New(nil)
	tcp := NewTCP()
	tcp.SetTelemetry(treg)
	defer tcp.Close()
	addr, err := tcp.RegisterAuto("127.0.0.1", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tcp.Call("client", addr, echoReq{Msg: "hi"}); err != nil {
		t.Fatal(err)
	}
	if got := treg.Counter("transport.calls").Value(); got != 1 {
		t.Errorf("tcp transport.calls = %d, want 1", got)
	}
	if got := treg.Histogram("transport.call.latency_ns", telemetry.LatencyBuckets()).Count(); got != 1 {
		t.Errorf("tcp latency observations = %d, want 1", got)
	}
}
