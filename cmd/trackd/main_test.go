package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"peertrack"
	"peertrack/internal/ctlapi"
)

func TestNodeBackendPersistRestoreCycle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")

	node, err := peertrack.StartNode("127.0.0.1:0", peertrack.NodeOptions{NetworkSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	addr := node.Addr()
	b := &nodeBackend{node: node, dataPath: path}

	if err := b.ObserveAt("urn:epc:id:sgtin:0614141.812345.77", time.Now()); err != nil {
		t.Fatal(err)
	}
	node.Flush()
	n, err := b.Persist()
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("snapshot size = %d", n)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}
	visits, indexed := b.Stats()
	node.Close()

	// Restart on the same address and restore.
	node2, err := peertrack.StartNode(addr, peertrack.NodeOptions{NetworkSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer node2.Close()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := node2.Restore(f); err != nil {
		t.Fatal(err)
	}
	v2, i2 := node2.StorageStats()
	if v2 != visits || i2 != indexed {
		t.Fatalf("restored stats %d/%d, want %d/%d", v2, i2, visits, indexed)
	}
	// The tracked object is queryable after restart.
	stops, _, err := node2.Trace("urn:epc:id:sgtin:0614141.812345.77")
	if err != nil {
		t.Fatal(err)
	}
	if len(stops) != 1 || stops[0].Node != addr {
		t.Fatalf("post-restart trace = %v", stops)
	}
}

func TestPersistWithoutPathFails(t *testing.T) {
	node, err := peertrack.StartNode("127.0.0.1:0", peertrack.NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	b := &nodeBackend{node: node}
	if _, err := b.Persist(); err == nil {
		t.Fatal("persist without -data path succeeded")
	}
}

func TestMapErr(t *testing.T) {
	if mapErr(nil) != nil {
		t.Error("nil not preserved")
	}
	if !errors.Is(mapErr(peertrack.ErrNotTracked), ctlapi.ErrNotTracked) {
		t.Error("ErrNotTracked not mapped to 404 sentinel")
	}
	if !errors.Is(mapErr(peertrack.ErrNoPrediction), ctlapi.ErrNotTracked) {
		t.Error("ErrNoPrediction not mapped to 404 sentinel")
	}
	plain := errors.New("boom")
	if !errors.Is(mapErr(plain), plain) {
		t.Error("other errors must pass through")
	}
}

func TestBackendRingAndInventory(t *testing.T) {
	node, err := peertrack.StartNode("127.0.0.1:0", peertrack.NodeOptions{NetworkSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	b := &nodeBackend{node: node}
	b.ObserveAt("inv-obj", time.Now())
	node.Flush()
	if got := b.InventoryList(); len(got) != 1 || got[0] != "inv-obj" {
		t.Fatalf("inventory = %v", got)
	}
	_, _, lp := b.Ring()
	if lp <= 0 {
		t.Fatalf("prefix length = %d", lp)
	}
}

// TestShutdownSkipsSilentConnections starts shutdown with one control
// connection that has sent nothing and one request in flight: the
// request is answered, and the silent connection does not hold the
// drain (net/http alone counts it idle only after 5 s).
func TestShutdownSkipsSilentConnections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opened, entered, release := make(chan struct{}, 2), make(chan struct{}), make(chan struct{})
	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			close(entered)
			<-release
			io.WriteString(w, "answered")
		}),
		ConnState: func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				opened <- struct{}{}
			}
		},
		ReadHeaderTimeout: controlReadHeaderTimeout,
		IdleTimeout:       controlIdleTimeout,
	}
	stop, done := make(chan os.Signal, 1), make(chan struct{})
	go func() {
		serveControl(srv, ln, stop)
		close(done)
	}()

	url := "http://" + ln.Addr().String() + "/"
	body := make(chan string, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			body <- err.Error()
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		body <- string(b)
	}()
	<-entered
	silent, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	<-opened
	<-opened // both connections are tracked by the server

	start := time.Now()
	stop <- os.Interrupt
	close(release)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("shutdown still draining after 1 s with one silent connection open")
	}
	t.Logf("shutdown took %v", time.Since(start))
	if got := <-body; got != "answered" {
		t.Errorf("in-flight request got %q, want it answered", got)
	}
}
