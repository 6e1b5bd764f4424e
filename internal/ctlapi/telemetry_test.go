package ctlapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"peertrack/internal/core"
	"peertrack/internal/moods"
	"peertrack/internal/telemetry"
)

func telemetrySetup(t *testing.T) (*telemetry.Registry, string) {
	t.Helper()
	var virtual time.Duration
	reg := telemetry.New(func() time.Duration {
		virtual += time.Millisecond
		return virtual
	})
	srv := httptest.NewServer(HandlerWithTelemetry(newFake(), nil, reg))
	t.Cleanup(srv.Close)
	return reg, srv.URL
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	reg, base := telemetrySetup(t)
	reg.Counter("transport.calls").Add(42)

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	if !strings.Contains(body, "counter transport.calls 42\n") {
		t.Errorf("exposition missing counter:\n%s", body)
	}
	// The request accounting middleware counts the in-flight /metrics
	// call too, so the second scrape sees both.
	_, body = get(t, base+"/metrics")
	if !strings.Contains(body, "counter http.requests.method.GET 2\n") {
		t.Errorf("request accounting missing:\n%s", body)
	}
	if !strings.Contains(body, "histogram http.request.latency count=1") {
		t.Errorf("latency histogram missing:\n%s", body)
	}
}

func TestDebugTraceEndpoint(t *testing.T) {
	reg, base := telemetrySetup(t)
	for i := 0; i < 3; i++ {
		sp := reg.Tracer().Start(telemetry.OpLocate, "obj-a")
		sp.Step("n1", telemetry.NewNote("gateway hit"))
		sp.Finish(2, nil)
	}
	sp := reg.Tracer().Start(telemetry.OpTrace, "obj-b")
	sp.Finish(5, nil)

	code, body := get(t, base+"/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/trace = %d", code)
	}
	var all TraceDebugResponse
	if err := json.Unmarshal([]byte(body), &all); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if all.Count != 4 {
		t.Fatalf("count = %d, want 4", all.Count)
	}
	if all.Spans[0].Op != "trace" || all.Spans[0].Key != "obj-b" {
		t.Errorf("newest span = %+v, want the trace of obj-b", all.Spans[0])
	}

	_, body = get(t, base+"/debug/trace?object=obj-a&n=2")
	var filtered TraceDebugResponse
	if err := json.Unmarshal([]byte(body), &filtered); err != nil {
		t.Fatal(err)
	}
	if filtered.Count != 2 {
		t.Fatalf("filtered count = %d, want 2 (n cap)", filtered.Count)
	}
	for _, s := range filtered.Spans {
		if s.Key != "obj-a" {
			t.Errorf("filter leaked span %+v", s)
		}
		if len(s.Steps) != 1 || s.Steps[0].Note != "gateway hit" {
			t.Errorf("span steps not serialised: %+v", s)
		}
	}

	if code, _ := get(t, base+"/debug/trace?n=bogus"); code != http.StatusBadRequest {
		t.Errorf("bad n accepted: %d", code)
	}
}

func TestTelemetryEndpointsNilRegistry(t *testing.T) {
	srv := httptest.NewServer(HandlerWithClock(newFake(), nil))
	t.Cleanup(srv.Close)

	code, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK || body != "spans 0\n" {
		t.Errorf("nil-registry /metrics = %d %q", code, body)
	}
	code, body = get(t, srv.URL+"/debug/trace")
	if code != http.StatusOK {
		t.Errorf("nil-registry /debug/trace = %d", code)
	}
	var resp TraceDebugResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil || resp.Count != 0 {
		t.Errorf("nil-registry spans = %q (err %v)", body, err)
	}
}

// TestDebugTraceGoldenJSON pins the exact /debug/trace reply for one
// index span and one trace span recorded by a real (simulated) network:
// the wire shape trackctl and dashboards read.
func TestDebugTraceGoldenJSON(t *testing.T) {
	nw, err := core.BuildNetwork(core.NetworkConfig{Nodes: 8, Seed: 1, Peer: core.Config{Mode: core.GroupIndexing}})
	if err != nil {
		t.Fatal(err)
	}
	obj := moods.ObjectID("pallet")
	for i, at := range []time.Duration{3 * time.Second, 90 * time.Second} {
		obs := moods.Observation{Object: obj, Node: nw.Peers()[2*i].Name(), At: at}
		if err := nw.ScheduleObservation(obs); err != nil {
			t.Fatal(err)
		}
	}
	nw.StartWindows(2 * time.Minute)
	nw.Run()
	if _, err := nw.Peers()[5].FullTrace(obj); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(HandlerWithTelemetry(newFake(), nil, nw.Telemetry))
	t.Cleanup(srv.Close)

	for _, c := range []struct{ key, want string }{
		{"11100", `{"count":1,"spans":[{"id":2,"op":"index","key":"11100","start":90000000000,"end":90000000000,"hops":2,"steps":[{"at":90000000000,"node":"org-0001","note":"gateway: 1 events from org-0007, 0 unknown"},{"at":90000000000,"node":"org-0000","note":"M2: 1 objects moved on to org-0007"},{"at":90000000000,"node":"org-0007","note":"M3: 1 inbound links"}]}]}`},
		{"pallet", `{"count":1,"spans":[{"id":3,"op":"trace","key":"pallet","start":120000000000,"end":120000000000,"hops":3,"steps":[{"at":120000000000,"node":"org-0001","note":"gateway 11100: hit, head at org-0007"},{"at":120000000000,"node":"org-0007","note":"IOP walk: visit arrived 1m30s"},{"at":120000000000,"node":"org-0000","note":"IOP walk: visit arrived 3s"}]}]}`},
	} {
		if _, body := get(t, srv.URL+"/debug/trace?n=1&object="+c.key); body != c.want+"\n" {
			t.Errorf("/debug/trace?object=%s drifted\n got: %s want: %s", c.key, body, c.want)
		}
	}
}
