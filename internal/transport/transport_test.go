package transport

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

type echoReq struct{ Msg string }
type echoResp struct{ Msg string }
type bigReq struct{ N int }

func (b bigReq) WireSize() int { return b.N }

func init() {
	Register(echoReq{})
	Register(echoResp{})
	Register(bigReq{})
}

func echoHandler(from Addr, req any) (any, error) {
	switch r := req.(type) {
	case echoReq:
		return echoResp{Msg: r.Msg}, nil
	case bigReq:
		return echoResp{Msg: "big"}, nil
	default:
		return nil, fmt.Errorf("unknown request %T", req)
	}
}

func TestMemoryCallRoundTrip(t *testing.T) {
	n := NewMemory(1)
	if err := n.Register("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", echoHandler); err != nil {
		t.Fatal(err)
	}
	resp, err := n.Call("a", "b", echoReq{Msg: "hi"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(echoResp).Msg != "hi" {
		t.Fatalf("resp = %+v", resp)
	}
	snap := n.Stats().Snapshot()
	if snap.Calls != 1 || snap.Messages != 2 || snap.Failures != 0 {
		t.Errorf("stats = %+v", snap)
	}
}

func TestMemoryUnreachable(t *testing.T) {
	n := NewMemory(1)
	n.Register("a", echoHandler)
	_, err := n.Call("a", "ghost", echoReq{})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
	snap := n.Stats().Snapshot()
	if snap.Failures != 1 || snap.Messages != 1 {
		t.Errorf("stats = %+v", snap)
	}
}

func TestMemoryKillRevive(t *testing.T) {
	n := NewMemory(1)
	n.Register("a", echoHandler)
	n.Register("b", echoHandler)
	n.Kill("b")
	if _, err := n.Call("a", "b", echoReq{}); !errors.Is(err, ErrUnreachable) {
		t.Fatal("call to dead node succeeded")
	}
	// A dead caller cannot send either.
	n.Revive("b")
	n.Kill("a")
	if _, err := n.Call("a", "b", echoReq{}); !errors.Is(err, ErrUnreachable) {
		t.Fatal("call from dead node succeeded")
	}
	n.Revive("a")
	if _, err := n.Call("a", "b", echoReq{}); err != nil {
		t.Fatalf("call after revive failed: %v", err)
	}
}

func TestMemoryPartition(t *testing.T) {
	n := NewMemory(1)
	n.Register("a", echoHandler)
	n.Register("b", echoHandler)
	n.Partition("b", 1)
	if _, err := n.Call("a", "b", echoReq{}); !errors.Is(err, ErrUnreachable) {
		t.Fatal("cross-partition call succeeded")
	}
	n.Partition("a", 1)
	if _, err := n.Call("a", "b", echoReq{}); err != nil {
		t.Fatalf("same-partition call failed: %v", err)
	}
	n.HealPartitions()
	n.Register("c", echoHandler)
	if _, err := n.Call("a", "c", echoReq{}); err != nil {
		t.Fatalf("post-heal call failed: %v", err)
	}
}

func TestMemoryDropRate(t *testing.T) {
	n := NewMemory(42)
	n.Register("a", echoHandler)
	n.Register("b", echoHandler)
	n.SetDropRate(0.5)
	failures := 0
	for i := 0; i < 200; i++ {
		if _, err := n.Call("a", "b", echoReq{}); err != nil {
			failures++
		}
	}
	if failures < 60 || failures > 140 {
		t.Errorf("with 50%% drop rate got %d/200 failures", failures)
	}
	n.SetDropRate(0)
	if _, err := n.Call("a", "b", echoReq{}); err != nil {
		t.Fatalf("call after clearing drop rate: %v", err)
	}
}

func TestMemoryRemoteError(t *testing.T) {
	n := NewMemory(1)
	n.Register("a", echoHandler)
	n.Register("bad", func(from Addr, req any) (any, error) {
		return nil, errors.New("boom")
	})
	_, err := n.Call("a", "bad", echoReq{})
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "boom" {
		t.Fatalf("err = %v", err)
	}
}

func TestWireSizeAccounting(t *testing.T) {
	n := NewMemory(1)
	n.Register("a", echoHandler)
	n.Register("b", echoHandler)
	before := n.Stats().Snapshot()
	n.Call("a", "b", bigReq{N: 1000})
	delta := n.Stats().Snapshot().Delta(before)
	want := uint64(DefaultMsgSize + 1000 + DefaultMsgSize) // req + resp
	if delta.Bytes != want {
		t.Errorf("bytes = %d, want %d", delta.Bytes, want)
	}
}

func TestStatsByType(t *testing.T) {
	n := NewMemory(1)
	n.Register("a", echoHandler)
	n.Register("b", echoHandler)
	n.Call("a", "b", echoReq{})
	n.Call("a", "b", bigReq{})
	n.Call("b", "a", echoReq{})
	byType := n.Stats().ByType()
	if len(byType) != 2 || byType["transport.echoReq"] != 2 || byType["transport.bigReq"] != 1 {
		t.Errorf("byType = %v", byType)
	}
}

func TestMemoryConcurrentCalls(t *testing.T) {
	n := NewMemory(1)
	for i := 0; i < 8; i++ {
		n.Register(Addr(fmt.Sprintf("n%d", i)), echoHandler)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				from := Addr(fmt.Sprintf("n%d", i))
				to := Addr(fmt.Sprintf("n%d", (i+1)%8))
				if _, err := n.Call(from, to, echoReq{Msg: "x"}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if snap := n.Stats().Snapshot(); snap.Calls != 800 {
		t.Errorf("calls = %d, want 800", snap.Calls)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	addr, err := tr.RegisterAuto("127.0.0.1", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tr.Call("client", addr, echoReq{Msg: "over tcp"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(echoResp).Msg != "over tcp" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestTCPRemoteError(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	addr, err := tr.RegisterAuto("127.0.0.1", func(from Addr, req any) (any, error) {
		return nil, errors.New("remote boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = tr.Call("client", addr, echoReq{})
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "remote boom" {
		t.Fatalf("err = %v", err)
	}
}

// A panicking handler reaches the caller as a RemoteError and is
// counted; the process, the listener and the connection all survive it.
func TestTCPHandlerPanicIsContained(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	addr, err := tr.RegisterAuto("127.0.0.1", func(from Addr, req any) (any, error) {
		if req.(echoReq).Msg == "boom" {
			panic("index out of range")
		}
		return echoHandler(from, req)
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = tr.Call("client", addr, echoReq{Msg: "boom"})
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "index out of range") {
		t.Fatalf("err = %v, want a RemoteError carrying the panic", err)
	}
	if resp, err := tr.Call("client", addr, echoReq{Msg: "after"}); err != nil || resp.(echoResp).Msg != "after" {
		t.Fatalf("call after the panic = %+v, %v", resp, err)
	}
	if n := tr.Stats().reg.Counter("transport.handler.panics").Value(); n != 1 {
		t.Fatalf("transport.handler.panics = %d, want 1", n)
	}
	if n := tr.Stats().reg.Counter("transport.conn.stale").Value(); n != 0 {
		t.Fatalf("the panic cost %d connections", n)
	}
}

func TestTCPUnreachable(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	_, err := tr.Call("client", "127.0.0.1:1", echoReq{})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPConnectionReuse(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	addr, err := tr.RegisterAuto("127.0.0.1", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := tr.Call("client", addr, echoReq{Msg: "x"}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if snap := tr.Stats().Snapshot(); snap.Calls != 50 || snap.Failures != 0 {
		t.Errorf("stats = %+v", snap)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	addr, err := tr.RegisterAuto("127.0.0.1", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				msg := fmt.Sprintf("c%d-%d", i, j)
				resp, err := tr.Call("client", addr, echoReq{Msg: msg})
				if err != nil {
					t.Error(err)
					return
				}
				if resp.(echoResp).Msg != msg {
					t.Errorf("got %q want %q", resp.(echoResp).Msg, msg)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestTCPUnregisterStopsService(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	addr, err := tr.RegisterAuto("127.0.0.1", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	tr.Unregister(addr)
	// New connections must fail (pooled conns may linger; force new pool).
	tr2 := NewTCP()
	defer tr2.Close()
	if _, err := tr2.Call("client", addr, echoReq{}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("call after unregister: %v", err)
	}
}
