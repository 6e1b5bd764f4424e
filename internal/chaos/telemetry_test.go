package chaos

import (
	"reflect"
	"testing"
)

// TestSweepTelemetryWorkerIndependent is the acceptance gate for the
// telemetry subsystem's determinism claim: the same sweep run with
// different worker counts must merge to a byte-identical telemetry
// exposition, because each scenario owns its registry and the merge is
// assembled in seed order.
func TestSweepTelemetryWorkerIndependent(t *testing.T) {
	run := Config{Profile: ProfileSafe}.Run
	n := 6
	if testing.Short() {
		n = 3
	}
	a := Sweep(run, 11, n, 1)
	b := Sweep(run, 11, n, 4)
	if !reflect.DeepEqual(a.Telemetry, b.Telemetry) {
		t.Errorf("sweep telemetry differs across worker counts:\n%+v\n%+v", a.Telemetry, b.Telemetry)
	}
	at, bt := a.Telemetry.Text(), b.Telemetry.Text()
	if at != bt {
		t.Fatalf("telemetry exposition not byte-identical:\n--- workers=1 ---\n%s--- workers=4 ---\n%s", at, bt)
	}
	if len(a.Telemetry.Counters) == 0 || a.Telemetry.Spans == 0 {
		t.Fatalf("sweep telemetry empty:\n%s", at)
	}
}

// TestReportTelemetryPopulated checks a single scenario captures the
// whole stack's instruments: transport traffic, chord lookups, window
// flushes, and query spans.
func TestReportTelemetryPopulated(t *testing.T) {
	rep := Config{Profile: ProfileSafe}.Run(7)
	if rep.Failed() {
		t.Fatalf("scenario failed:\n%s", rep)
	}
	values := map[string]uint64{}
	for _, c := range rep.Telemetry.Counters {
		values[c.Name] = c.Value
	}
	for _, name := range []string{"transport.calls", "core.window.flushes", "core.locates", "core.traces"} {
		if values[name] == 0 {
			t.Errorf("counter %s = 0 after a full scenario\n%s", name, rep.Telemetry.Text())
		}
	}
	if rep.Telemetry.Spans == 0 {
		t.Error("no spans recorded")
	}
}
