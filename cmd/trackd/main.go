// Command trackd runs one live PeerTrack node: a Chord/PeerTrack
// participant on a TCP listen address, plus a local HTTP control API
// (internal/ctlapi) for feeding capture events and issuing queries —
// see cmd/trackctl for the client.
//
// Start a network:
//
//	trackd -listen 10.0.0.1:7000 -control 127.0.0.1:7070 -netsize 3
//	trackd -listen 10.0.0.2:7000 -control 127.0.0.1:7070 -netsize 3 -join 10.0.0.1:7000
//
// With -data PATH the node restores its durable state (local
// repository, gateway index, replicas, learned flows) at startup and
// persists it on shutdown and on POST /snapshot.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"peertrack"
	"peertrack/internal/ctlapi"
)

// Control connections are kept alive: ctlapi.Client finishes every
// response, so a warehouse system holds one connection per node and
// posts every capture event over it. These bound what such a connection
// may cost the node. The idle timeout sits above the 90 s after which
// net/http's default transport drops an idle connection itself, so in a
// healthy deployment it is always the client that closes first: a POST
// written into a connection the server is closing at that moment is
// not replayed by net/http, and /observe is not idempotent (a second
// delivery records a second visit), so a server-side close could only
// surface as a failed event.
const (
	controlReadHeaderTimeout = 10 * time.Second
	controlIdleTimeout       = 120 * time.Second
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7000", "P2P listen address (host:port, port 0 for ephemeral)")
	control := flag.String("control", "127.0.0.1:7070", "HTTP control address")
	join := flag.String("join", "", "bootstrap peer to join (host:port); empty starts a new network")
	netsize := flag.Float64("netsize", 0, "pin the network-size estimate (recommended for small static deployments)")
	mode := flag.String("mode", "group", "indexing mode: group or individual")
	dataPath := flag.String("data", "", "snapshot file for durable state (restored at start, saved at exit)")
	secret := flag.String("secret", "", "shared network secret enabling HMAC frame authentication")
	replicas := flag.Int("replicas", 1, "total copies of gateway state incl. primary (1 = no replication; set identically network-wide)")
	d := peertrack.DefaultNodeOptions()
	dialTimeout := flag.Duration("dial-timeout", d.DialTimeout, "P2P TCP connect timeout")
	rpcAttempts := flag.Int("rpc-attempts", d.RPCAttempts, "total attempts per P2P call, first try included (1 = no retries)")
	rpcAttemptTimeout := flag.Duration("rpc-attempt-timeout", d.RPCAttemptTimeout, "deadline for each P2P attempt (one TCP round trip)")
	rpcBudget := flag.Duration("rpc-budget", d.RPCBudget, "total time budget per P2P call, attempts plus backoff")
	rpcBackoff := flag.Duration("rpc-backoff", d.RPCBackoff, "base retry backoff, doubling per retry (jittered)")
	breakerThreshold := flag.Int("breaker-threshold", d.BreakerThreshold, "consecutive failures to one peer that open its circuit breaker (negative disables; with -rpc-attempts 1, the raw-transport baseline)")
	breakerCooldown := flag.Duration("breaker-cooldown", d.BreakerCooldown, "open-breaker rejection period before a half-open probe")
	gossipEvery := flag.Duration("gossip-every", d.GossipEvery, "membership gossip round cadence (negative disables the agent)")
	replicaSyncEvery := flag.Duration("replica-sync-every", d.ReplicaSyncEvery, "replica anti-entropy cadence (active when -replicas > 1)")
	window := flag.Duration("window", d.WindowInterval, "capture-window flush interval T_interval")
	stabilizeEvery := flag.Duration("stabilize-every", d.StabilizeEvery, "overlay stabilization cadence of a quiet ring; a new neighbour pulls the next rounds in")
	flag.Parse()

	opts := peertrack.NodeOptions{
		NetworkSize:       *netsize,
		NetworkSecret:     *secret,
		Replicas:          *replicas,
		DialTimeout:       *dialTimeout,
		RPCAttempts:       *rpcAttempts,
		RPCAttemptTimeout: *rpcAttemptTimeout,
		RPCBudget:         *rpcBudget,
		RPCBackoff:        *rpcBackoff,
		BreakerThreshold:  *breakerThreshold,
		BreakerCooldown:   *breakerCooldown,
		GossipEvery:       *gossipEvery,
		ReplicaSyncEvery:  *replicaSyncEvery,
		WindowInterval:    *window,
		StabilizeEvery:    *stabilizeEvery,
	}
	switch *mode {
	case "group":
		opts.Mode = peertrack.Grouped
	case "individual":
		opts.Mode = peertrack.Individual
	default:
		log.Fatalf("unknown mode %q", *mode)
	}

	node, err := peertrack.StartNode(*listen, opts)
	if err != nil {
		log.Fatalf("start node: %v", err)
	}
	log.Printf("peertrack node listening on %s", node.Addr())

	if *dataPath != "" {
		if f, err := os.Open(*dataPath); err == nil {
			err := node.Restore(f)
			f.Close()
			if err != nil {
				log.Fatalf("restore %s: %v", *dataPath, err)
			}
			visits, indexed := node.StorageStats()
			log.Printf("restored state: %d visits, %d index records", visits, indexed)
		} else if !errors.Is(err, os.ErrNotExist) {
			log.Fatalf("open %s: %v", *dataPath, err)
		}
	}

	if *join != "" {
		// Bootstrap peers often start simultaneously; retry with
		// backoff instead of dying on a race.
		var err error
		for attempt := 1; attempt <= 10; attempt++ {
			if err = node.Join(*join); err == nil {
				break
			}
			log.Printf("join %s (attempt %d): %v", *join, attempt, err)
			time.Sleep(time.Duration(attempt) * 500 * time.Millisecond)
		}
		if err != nil {
			log.Fatalf("join %s: giving up: %v", *join, err)
		}
		log.Printf("joined network via %s", *join)
	}

	backend := &nodeBackend{node: node, dataPath: *dataPath}
	// A live node runs on the wall clock; the explicit Clock is the same
	// seam the deterministic harness uses to drive handlers on virtual
	// time. The node's telemetry registry backs /metrics and /debug/trace.
	httpSrv := &http.Server{
		Handler:           ctlapi.HandlerWithTelemetry(backend, time.Now, node.Telemetry()),
		ConnState:         ctlapi.CountConns(node.Telemetry()),
		ReadHeaderTimeout: controlReadHeaderTimeout,
		IdleTimeout:       controlIdleTimeout,
	}
	ln, err := net.Listen("tcp", *control)
	if err != nil {
		log.Fatalf("control api: %v", err)
	}
	log.Printf("control API on http://%s", *control)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	serveControl(httpSrv, ln, sig)
	// Close first: it flushes the open capture window, which a snapshot
	// does not hold, so every event answered 202 is in the state persisted.
	if err := node.Close(); err != nil {
		log.Printf("close: %v", err)
	}
	if *dataPath != "" {
		if n, err := backend.Persist(); err != nil {
			log.Printf("final snapshot failed: %v", err)
		} else {
			log.Printf("state persisted to %s (%d bytes)", *dataPath, n)
		}
	}
}

// serveControl serves the control API on ln until stop receives, then
// drains it: requests whose headers were read are answered (an /observe
// racing the final snapshot would otherwise be lost), within a bound so
// that a stuck client cannot wedge shutdown. A connection that has sent
// nothing is closed at once; net/http counts one idle only 5 s after it
// opened, and would wait that long for it. srv's own ConnState hook,
// which it must have, still sees every change.
func serveControl(srv *http.Server, ln net.Listener, stop <-chan os.Signal) {
	var silent sync.Map // the connections in http.StateNew
	count := srv.ConnState
	srv.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			silent.Store(c, nil)
		} else {
			silent.Delete(c)
		}
		count(c, s)
	}
	srv.RegisterOnShutdown(func() {
		silent.Range(func(c, _ any) bool {
			c.(net.Conn).Close()
			return true
		})
	})
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("control api: %v", err)
		}
	}()
	<-stop
	log.Print("shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("control api shutdown: %v", err)
		srv.Close()
	}
}

// nodeBackend adapts peertrack.Node to the control API.
type nodeBackend struct {
	node     *peertrack.Node
	dataPath string
}

func (b *nodeBackend) Addr() string { return b.node.Addr() }

func (b *nodeBackend) ObserveAt(object string, at time.Time) error {
	return b.node.ObserveAt(object, at)
}

func (b *nodeBackend) LocateAt(object string, at time.Time) (string, int, error) {
	node, stats, err := b.node.Locate(object, at)
	return node, stats.Hops, mapErr(err)
}

func (b *nodeBackend) TraceOf(object string) ([]ctlapi.Stop, int, error) {
	return ctlTrace(b.node.Trace(object))
}

func (b *nodeBackend) TraceBetween(object string, from, to time.Time) ([]ctlapi.Stop, int, error) {
	return ctlTrace(b.node.TraceBetween(object, from, to))
}

func (b *nodeBackend) ResolveTrace(object string) ([]ctlapi.Stop, int, error) {
	return ctlTrace(b.node.ResolveTrace(object))
}

func (b *nodeBackend) Pack(parent string, children []string) error {
	return b.node.Pack(parent, children)
}

func (b *nodeBackend) Unpack(parent string, children []string) error {
	return b.node.Unpack(parent, children)
}

// ctlTrace converts a facade trace answer into the control API's.
func ctlTrace(stops []peertrack.Stop, stats peertrack.QueryStats, err error) ([]ctlapi.Stop, int, error) {
	if err != nil {
		return nil, stats.Hops, mapErr(err)
	}
	out := make([]ctlapi.Stop, len(stops))
	for i, s := range stops {
		out[i] = ctlapi.Stop{Node: s.Node, Arrived: time.Unix(0, 0).Add(s.Arrived)}
	}
	return out, stats.Hops, nil
}

func (b *nodeBackend) PredictOf(object string) (ctlapi.Forecast, error) {
	pred, stats, err := b.node.PredictNext(object)
	if err != nil {
		return ctlapi.Forecast{}, mapErr(err)
	}
	return ctlapi.Forecast{
		Current:     pred.Current,
		Next:        pred.Next,
		Probability: pred.Probability,
		ETA:         time.Unix(0, 0).Add(pred.ETA),
		Hops:        stats.Hops,
	}, nil
}

func (b *nodeBackend) InventoryList() []string { return b.node.Inventory() }

func (b *nodeBackend) Stats() (int, int) { return b.node.StorageStats() }

func (b *nodeBackend) Ring() (string, string, int) { return b.node.RingInfo() }

func (b *nodeBackend) Persist() (int64, error) {
	if b.dataPath == "" {
		return 0, errors.New("no -data path configured")
	}
	tmp := b.dataPath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	// Synced before the rename, so that a crash leaves the old snapshot
	// or the whole new one under the path, never a cut one.
	err = b.node.Snapshot(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	info, err := os.Stat(tmp)
	if err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, b.dataPath); err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// mapErr converts facade errors into API sentinel errors.
func mapErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, peertrack.ErrNotTracked) || errors.Is(err, peertrack.ErrNoPrediction) {
		return fmt.Errorf("%w: %v", ctlapi.ErrNotTracked, err)
	}
	return err
}
