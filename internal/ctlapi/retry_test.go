package ctlapi

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"syscall"
	"testing"
	"time"
)

// reservePort binds an ephemeral loopback port and releases it, so the
// address is known to refuse connections until a server rebinds it.
func reservePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// serveOn starts srv on addr, a port released a moment ago. Rebinding
// one can race the kernel, so the bind retries.
func serveOn(t *testing.T, srv *http.Server, addr string) {
	t.Helper()
	for i := 0; i < 50; i++ {
		l, err := net.Listen("tcp", addr)
		if err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		go srv.Serve(l)
		return
	}
	t.Errorf("could not rebind %s", addr)
}

// The client must ride out a refused control port — a restarting node —
// by retrying with backoff, succeeding once the server is back.
func TestClientRetriesConnectionRefused(t *testing.T) {
	addr := reservePort(t)

	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(StatusResponse{Addr: "n1"})
	})
	srv := &http.Server{Handler: mux}
	defer srv.Close()

	// The server comes up from inside the client's retry sleep: the
	// first attempt is guaranteed to hit a refused port, later ones a
	// live server.
	var slept []time.Duration
	c := &Client{
		Base:         "http://" + addr,
		Retries:      5,
		RetryBackoff: time.Millisecond,
		Sleep: func(d time.Duration) {
			slept = append(slept, d)
			if len(slept) == 1 {
				serveOn(t, srv, addr)
			}
		},
	}

	st, err := c.Status()
	if err != nil {
		t.Fatalf("status with retries: %v", err)
	}
	if st.Addr != "n1" {
		t.Fatalf("status = %+v", st)
	}
	if len(slept) == 0 {
		t.Fatal("client never slept: first attempt cannot have been refused")
	}
	// Linear backoff: attempt k waits k·backoff.
	for i, d := range slept {
		if want := time.Duration(i+1) * time.Millisecond; d != want {
			t.Errorf("sleep %d = %v, want %v", i, d, want)
		}
	}
}

// Without retries configured the client fails fast, surfacing the raw
// connection-refused error; non-dial failures never retry.
func TestClientRetryScope(t *testing.T) {
	addr := reservePort(t)
	c := &Client{Base: "http://" + addr, Sleep: func(time.Duration) {
		t.Error("zero-retry client slept")
	}}
	_, err := c.Status()
	if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("want ECONNREFUSED, got %v", err)
	}

	// An HTTP-level error (404 → ErrNotTracked) must not trigger the
	// retry loop even with retries configured.
	mux := http.NewServeMux()
	mux.HandleFunc("/locate", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "unknown object", http.StatusNotFound)
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: mux}
	defer srv.Close()
	go srv.Serve(l)

	c2 := &Client{
		Base:    "http://" + l.Addr().String(),
		Retries: 3,
		Sleep:   func(time.Duration) { t.Error("client retried an HTTP error") },
	}
	if _, err := c2.Locate("ghost", time.Time{}); !errors.Is(err, ErrNotTracked) {
		t.Fatalf("want ErrNotTracked, got %v", err)
	}
}
