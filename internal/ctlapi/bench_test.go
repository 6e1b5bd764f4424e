package ctlapi

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"
)

// The control API's round trip beside the floor net/http sets under it:
// BenchmarkLocateRoundTrip and BenchmarkObserveRoundTrip drive the real
// Client against the real Handler over a constant Backend;
// BenchmarkNetHTTPFloorGet and …Post send the same bytes through the
// same loopback http.Server and http.Transport with everything this
// package adds taken out — constant bodies on both ends, the request
// built by hand around a parsed URL, no JSON, no mux. The difference is
// what ctlapi itself can still save (ROADMAP item 3); the floor is what
// only fewer requests can.
//
//	go test ./internal/ctlapi -run xxx -bench 'RoundTrip|NetHTTPFloor' -benchmem

// constBackend answers at once with constants.
type constBackend struct{ Backend }

func (constBackend) Addr() string                                    { return "127.0.0.1:1" }
func (constBackend) ObserveAt(string, time.Time) error               { return nil }
func (constBackend) LocateAt(string, time.Time) (string, int, error) { return "127.0.0.1:1", 1, nil }

const benchObject = "urn:epc:id:sgtin:0614141.107346.2017"

// loopback serves h on a loopback port until the benchmark ends and
// returns its base URL and a client with a transport of its own.
func loopback(b *testing.B, h http.Handler) (string, *http.Client) {
	b.Helper()
	srv := httptest.NewServer(h)
	b.Cleanup(srv.Close)
	return srv.URL, srv.Client()
}

func BenchmarkLocateRoundTrip(b *testing.B) {
	base, hc := loopback(b, Handler(constBackend{}))
	api := &Client{Base: base, HTTPClient: hc}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := api.Locate(benchObject, time.Time{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObserveRoundTrip(b *testing.B) {
	base, hc := loopback(b, Handler(constBackend{}))
	api := &Client{Base: base, HTTPClient: hc}
	at := time.Unix(1700000000, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := api.ObserveAt(benchObject, at); err != nil {
			b.Fatal(err)
		}
	}
}

// floor replies to every request with status and body after reading the
// request through, and the returned function sends one hand-built
// request (payload nil for a GET) and reads the reply through.
func floor(b *testing.B, method, path string, payload []byte, status int, reply string) func() {
	b.Helper()
	replyBytes := []byte(reply)
	base, hc := loopback(b, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header()["Content-Type"] = jsonType
		w.WriteHeader(status)
		w.Write(replyBytes)
	}))
	u, err := url.Parse(base + path)
	if err != nil {
		b.Fatal(err)
	}
	header := http.Header{}
	if payload != nil {
		header["Content-Type"] = jsonType
	}
	var body bytes.Reader
	return func() {
		req := &http.Request{Method: method, URL: u, Host: u.Host, Header: header, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1}
		if payload != nil {
			// A *bytes.Reader of known length: net/http writes headers and
			// body in one flush, as it does for the Client's own posts.
			body.Reset(payload)
			req.Body, req.ContentLength = io.NopCloser(&body), int64(len(payload))
		}
		resp, err := hc.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

var jsonType = []string{"application/json"}

func BenchmarkNetHTTPFloorGet(b *testing.B) {
	send := floor(b, http.MethodGet, "/locate?object="+url.QueryEscape(benchObject), nil,
		http.StatusOK, `{"object":"`+benchObject+`","node":"127.0.0.1:1","hops":1}`+"\n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}

func BenchmarkNetHTTPFloorPost(b *testing.B) {
	send := floor(b, http.MethodPost, "/observe", []byte(`{"object":"`+benchObject+`","at":"2023-11-14T22:13:20Z"}`),
		http.StatusAccepted, `{"ok":true}`+"\n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}
