// Package pins times single layers with fixed-count loops around their
// public functions: the control API over a constant backend, one TCP
// round trip, the resilience wrapper over the in-memory transport, a
// chord lookup on a static ring and a step of the event kernel. The
// numbers do not depend on a workload; every traced run takes them.
package pins

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"peertrack/internal/chord"
	"peertrack/internal/ctlapi"
	"peertrack/internal/ids"
	"peertrack/internal/sim"
	"peertrack/internal/transport"
)

// Loop counts. Each pin warms up for a tenth of its count first.
const (
	ctlapiCalls   = 3000
	tcpCalls      = 10000
	tcpLargeCalls = 2000
	memoryCalls   = 500000
	lookups       = 50000
	kernelSteps   = 1000000
	// largeEvents is the number of capture events in the large echo
	// payload, the size of a full group-indexing message.
	largeEvents = 256
)

// Run takes every pin and stores the results under their metric names.
func Run(out map[string]float64) error {
	for _, pin := range []func(map[string]float64) error{ctlapiPins, tcpPins, memoryPins, chordPin, kernelPin} {
		if err := pin(out); err != nil {
			return err
		}
	}
	return nil
}

// timeLoop runs fn n times after n/10 warm-up calls and returns the
// mean time per call and the mean heap allocations per call, counted
// process-wide (nothing else runs while a pin does).
func timeLoop(n int, fn func(i int) error) (nsPerCall, allocs float64, err error) {
	for i := 0; i < n/10; i++ {
		if err := fn(i); err != nil {
			return 0, 0, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// stub is a Backend that answers at once with constants, so a round
// trip through the real handler and the real client costs only what the
// control API itself costs.
type stub struct{ stops []ctlapi.Stop }

func (stub) Addr() string                                    { return "127.0.0.1:1" }
func (stub) ObserveAt(string, time.Time) error               { return nil }
func (stub) LocateAt(string, time.Time) (string, int, error) { return "127.0.0.1:1", 1, nil }
func (s stub) TraceOf(string) ([]ctlapi.Stop, int, error)    { return s.stops, len(s.stops), nil }
func (s stub) TraceBetween(string, time.Time, time.Time) ([]ctlapi.Stop, int, error) {
	return s.stops, len(s.stops), nil
}
func (s stub) ResolveTrace(string) ([]ctlapi.Stop, int, error) { return s.stops, len(s.stops), nil }
func (stub) Pack(string, []string) error                       { return nil }
func (stub) Unpack(string, []string) error                     { return nil }
func (stub) PredictOf(string) (ctlapi.Forecast, error)         { return ctlapi.Forecast{}, nil }
func (stub) InventoryList() []string                           { return nil }
func (stub) Stats() (int, int)                                 { return 0, 0 }
func (stub) Ring() (string, string, int)                       { return "", "", 0 }
func (stub) Persist() (int64, error)                           { return 0, errors.New("stub") }

func ctlapiPins(out map[string]float64) error {
	b := stub{}
	for h := 0; h < 6; h++ {
		b.stops = append(b.stops, ctlapi.Stop{Node: "127.0.0.1:1", Arrived: time.Unix(int64(60*h), 0)})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var newConns atomic.Int64
	srv := &http.Server{
		Handler: ctlapi.Handler(b),
		ConnState: func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				newConns.Add(1)
			}
		},
	}
	go srv.Serve(ln) // returns when Close closes the server
	defer srv.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	api := &ctlapi.Client{Base: "http://" + ln.Addr().String(), HTTPClient: &http.Client{Transport: tr}}

	const object = "urn:epc:id:sgtin:0614141.107346.2017"
	at := time.Unix(1700000000, 0)
	for _, pin := range []struct {
		name string
		fn   func(int) error
	}{
		{"observe", func(int) error { return api.ObserveAt(object, at) }},
		{"locate", func(int) error { _, err := api.Locate(object, time.Time{}); return err }},
		{"trace", func(int) error { _, err := api.Trace(object); return err }},
	} {
		conns := newConns.Load()
		ns, allocs, err := timeLoop(ctlapiCalls, pin.fn)
		if err != nil {
			return fmt.Errorf("ctlapi %s: %w", pin.name, err)
		}
		out["ctlapi."+pin.name+"_rt_us"] = ns / 1e3
		if pin.name != "trace" {
			out["ctlapi.allocs_per_"+pin.name] = allocs
			// The warm-up calls count too: a tenth on top.
			out["ctlapi.new_conns_per_"+pin.name] = float64(newConns.Load()-conns) / (ctlapiCalls * 1.1)
		}
	}
	return nil
}

// echoSmall is a 64-byte request; echoLarge carries as many capture
// events as a full group-indexing message and declares its wire size
// the way core's messages do.
type echoSmall struct{ Pad [64]byte }

func (echoSmall) WireSize() int { return 64 }

type echoEvent struct {
	Object  string
	Arrived time.Duration
}

type echoLarge struct {
	Node   string
	Events []echoEvent
}

func (e echoLarge) WireSize() int {
	n := len(e.Node) + 8
	for _, ev := range e.Events {
		n += len(ev.Object) + 8
	}
	return n
}

type echoAck struct{}

func init() {
	transport.Register(echoSmall{})
	transport.Register(echoLarge{})
	transport.Register(echoAck{})
}

func tcpPins(out map[string]float64) error {
	server, caller := transport.NewTCP(), transport.NewTCP()
	defer server.Close()
	defer caller.Close()
	handler := func(transport.Addr, any) (any, error) { return echoAck{}, nil }
	addr, err := server.RegisterAuto("127.0.0.1", handler)
	if err != nil {
		return err
	}
	const from = transport.Addr("pin-caller")
	var small any = echoSmall{}
	large := echoLarge{Node: "127.0.0.1:7000"}
	for i := 0; i < largeEvents; i++ {
		large.Events = append(large.Events, echoEvent{fmt.Sprintf("urn:epc:id:sgtin:0614141.107346.%04d", i), time.Duration(i)})
	}

	ns, allocs, err := timeLoop(tcpCalls, func(int) error { _, err := caller.Call(from, addr, small); return err })
	if err != nil {
		return fmt.Errorf("tcp small: %w", err)
	}
	out["transport.tcp_call_us"] = ns / 1e3
	out["transport.tcp_call_allocs"] = allocs
	ns, _, err = timeLoop(tcpLargeCalls, func(int) error { _, err := caller.Call(from, addr, large); return err })
	if err != nil {
		return fmt.Errorf("tcp large: %w", err)
	}
	out["transport.tcp_call_large_us"] = ns / 1e3

	// Two callers, one peer: what multiplexing a connection would move.
	start := time.Now()
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < tcpCalls/2 && errs[g] == nil; i++ {
				_, errs[g] = caller.Call(from, addr, small)
			}
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("tcp 2 callers: %w", err)
	}
	out["transport.tcp_call_2conc_per_s"] = float64(tcpCalls) / time.Since(start).Seconds()

	// Declared against actual bytes: the same calls through a counting
	// proxy. The first call on a connection also carries gob's type
	// descriptions, so it is made before counting starts.
	proxy, err := NewProxy(string(addr))
	if err != nil {
		return err
	}
	defer proxy.Close()
	via := transport.Addr(proxy.Addr())
	for _, size := range []struct {
		name string
		req  any
	}{{"small", small}, {"large", large}} {
		const calls = 200
		if _, err := caller.Call(from, via, size.req); err != nil {
			return fmt.Errorf("tcp via proxy: %w", err)
		}
		wire, declared := proxy.Bytes(), caller.Stats().Snapshot().Bytes
		for i := 0; i < calls; i++ {
			if _, err := caller.Call(from, via, size.req); err != nil {
				return fmt.Errorf("tcp via proxy: %w", err)
			}
		}
		out["transport.wire_bytes_"+size.name] = float64(proxy.Bytes()-wire) / calls
		out["transport.declared_bytes_"+size.name] = float64(caller.Stats().Snapshot().Bytes-declared) / calls
	}
	return nil
}

func memoryPins(out map[string]float64) error {
	mem := transport.NewMemory(1)
	const addr = transport.Addr("pin-node")
	var resp any = echoAck{}
	if err := mem.Register(addr, func(transport.Addr, any) (any, error) { return resp, nil }); err != nil {
		return err
	}
	var req any = echoSmall{}
	bare, _, err := timeLoop(memoryCalls, func(int) error { _, err := mem.Call(addr, addr, req); return err })
	if err != nil {
		return fmt.Errorf("memory call: %w", err)
	}
	epoch := time.Now()
	res := transport.NewResilient(mem, func() time.Duration { return time.Since(epoch) }, time.Sleep, transport.ResilientConfig{})
	wrapped, _, err := timeLoop(memoryCalls, func(int) error { _, err := res.Call(addr, addr, req); return err })
	if err != nil {
		return fmt.Errorf("resilient call: %w", err)
	}
	out["transport.memory_call_ns"] = bare
	out["transport.resilient_overhead_ns"] = wrapped - bare
	return nil
}

func chordPin(out map[string]float64) error {
	mem := transport.NewMemory(1)
	addrs := make([]transport.Addr, 128)
	for i := range addrs {
		addrs[i] = transport.Addr(fmt.Sprintf("pin-%03d", i))
	}
	ring, err := chord.BuildStaticRing(mem, addrs, chord.Config{})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	keys := make([]ids.ID, 1024)
	for i := range keys {
		keys[i] = ids.HashString(fmt.Sprint(rng.Int63()))
	}
	ns, _, err := timeLoop(lookups, func(i int) error {
		_, err := ring[i%len(ring)].Lookup(keys[i%len(keys)])
		return err
	})
	if err != nil {
		return fmt.Errorf("chord lookup: %w", err)
	}
	out["chord.lookup_ns"] = ns
	return nil
}

func kernelPin(out map[string]float64) error {
	k := sim.New(1)
	fn := func() {}
	ns, _, err := timeLoop(kernelSteps, func(int) error {
		k.Schedule(time.Microsecond, fn)
		k.Step()
		return nil
	})
	out["sim.kernel_step_ns"] = ns
	return err
}
