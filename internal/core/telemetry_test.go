package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"peertrack/internal/moods"
)

// runTelemetryWorkload drives a small deterministic workload — movement,
// window flushes, then locate and trace queries — and returns the
// network plus its telemetry exposition text.
func runTelemetryWorkload(t *testing.T) (*Network, string) {
	t.Helper()
	nw := buildNet(t, 16, Config{Mode: GroupIndexing})
	for i := 0; i < 6; i++ {
		obj := moods.ObjectID(fmt.Sprintf("tel-%d", i))
		moveObject(t, nw, obj, []int{i % 16, (i + 3) % 16, (i + 9) % 16}, time.Second, time.Minute)
	}
	nw.StartWindows(5 * time.Minute)
	nw.Run()
	// The static ring build skips maintenance; run one explicit round so
	// the chord instruments register activity.
	if err := nw.Peers()[0].chord.Stabilize(); err != nil {
		t.Fatalf("stabilize: %v", err)
	}
	for i := 0; i < 6; i++ {
		obj := moods.ObjectID(fmt.Sprintf("tel-%d", i))
		if _, err := nw.Peers()[(i+1)%16].Locate(obj, time.Hour); err != nil {
			t.Fatalf("locate %s: %v", obj, err)
		}
		if _, err := nw.Peers()[(i+5)%16].FullTrace(obj); err != nil {
			t.Fatalf("trace %s: %v", obj, err)
		}
	}
	return nw, nw.Telemetry.Snapshot().Text()
}

func TestNetworkTelemetryWiring(t *testing.T) {
	nw, text := runTelemetryWorkload(t)
	snap := nw.Telemetry.Snapshot()

	counters := map[string]uint64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	for _, name := range []string{
		"core.window.flushes",
		"core.locates",
		"core.traces",
		"transport.calls",
	} {
		if counters[name] == 0 {
			t.Errorf("counter %s = 0, want > 0\n%s", name, text)
		}
	}
	if counters["core.locates"] != 6 || counters["core.traces"] != 6 {
		t.Errorf("locates = %d, traces = %d, want 6 each",
			counters["core.locates"], counters["core.traces"])
	}

	// Every event buffered during the run must have been flushed out.
	for _, g := range snap.Gauges {
		if g.Name == "core.window.buffered" && g.Value != 0 {
			t.Errorf("core.window.buffered = %d after full drain", g.Value)
		}
	}

	// Query spans carry the causal chain: gateway consultations plus the
	// IOP walk, keyed by object.
	if snap.Spans == 0 {
		t.Fatal("no spans recorded")
	}
	spans := nw.Telemetry.Tracer().ForKey("tel-0", 10)
	if len(spans) == 0 {
		t.Fatal("no spans for tel-0")
	}
	var sawLocate, sawGateway, sawWalk bool
	for _, sp := range spans {
		if sp.Op == "locate" {
			sawLocate = true
		}
		for _, st := range sp.Steps {
			if strings.Contains(st.Note, "gateway") {
				sawGateway = true
			}
			if strings.Contains(st.Note, "IOP walk") {
				sawWalk = true
			}
		}
	}
	if !sawLocate || !sawGateway {
		t.Errorf("span chain incomplete: locate=%v gateway=%v (spans: %v)",
			sawLocate, sawGateway, spans)
	}
	// FullTrace walks the whole chain, so at least one trace span has
	// IOP-walk steps.
	traceSpans := nw.Telemetry.Tracer().Recent(1000)
	for _, sp := range traceSpans {
		if sp.Op == "trace" {
			for _, st := range sp.Steps {
				if strings.Contains(st.Note, "IOP walk") {
					sawWalk = true
				}
			}
		}
	}
	if !sawWalk {
		t.Error("no IOP-walk steps recorded on any span")
	}

	// Chord maintenance instruments fire during ring construction.
	if counters["chord.stabilize.rounds"] == 0 {
		t.Error("chord.stabilize.rounds = 0")
	}
	if counters["core.locates"] > 0 {
		hist := false
		for _, h := range snap.Histograms {
			if h.Name == "core.locate.hops" && h.Count == counters["core.locates"] {
				hist = true
			}
		}
		if !hist {
			t.Error("core.locate.hops count does not match core.locates")
		}
	}
}

func TestNetworkTelemetryDeterministic(t *testing.T) {
	_, a := runTelemetryWorkload(t)
	_, b := runTelemetryWorkload(t)
	if a != b {
		t.Fatalf("telemetry text differs between identical runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
}
