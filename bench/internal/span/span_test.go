package span

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimesSumToRoot(t *testing.T) {
	us := time.Microsecond
	spans := []Span{
		// Request 1: request ⊃ ctlapi ⊃ node.locate.
		{ID: 1, Name: "request", Start: 0, End: 100 * us},
		{ID: 1, Name: "ctlapi", Start: 10 * us, End: 90 * us},
		{ID: 1, Name: "node.locate", Start: 30 * us, End: 70 * us},
		// Request 2 overlaps request 1 in time but not in ID; its two
		// children are siblings.
		{ID: 2, Name: "request", Start: 50 * us, End: 150 * us},
		{ID: 2, Name: "ctlapi", Start: 50 * us, End: 80 * us},
		{ID: 2, Name: "ctlapi", Start: 100 * us, End: 140 * us},
	}
	got := SelfTimes(spans)
	want := map[string]Self{
		"request":     {Count: 2, Total: 200 * us, Self: 20*us + 30*us},
		"ctlapi":      {Count: 3, Total: 150 * us, Self: 40*us + 30*us + 40*us},
		"node.locate": {Count: 1, Total: 40 * us, Self: 40 * us},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %+v, want %+v", name, got[name], w)
		}
	}
	var self time.Duration
	for _, s := range got {
		self += s.Self
	}
	if self != got["request"].Total {
		t.Errorf("self times sum to %v, root spans to %v", self, got["request"].Total)
	}
}

func TestRecorderSwitchAndNil(t *testing.T) {
	var none *Recorder
	if none.On() || none.Spans() != nil {
		t.Error("nil recorder must be off and empty")
	}
	none.SetOn(true) // must not panic
	r := NewRecorder()
	if r.On() {
		t.Error("new recorder must be off")
	}
	r.SetOn(true)
	r.Add(Span{ID: 1, Name: "request"})
	r.SetOn(false)
	if r.On() || len(r.Spans()) != 1 {
		t.Error("switching off keeps what was recorded")
	}
}

func TestWriteFileIsChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.trace.json")
	spans := []Span{
		{ID: 7, Name: "ctlapi", Lane: 1, Node: 3, Start: 2 * time.Microsecond, End: 5 * time.Microsecond},
		{ID: 7, Name: "request", Lane: 1, Node: 3, Start: time.Microsecond, End: 6 * time.Microsecond},
	}
	if err := WriteFile(path, "w", spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[0].Name != "request" || doc.TraceEvents[0].Dur != 5 {
		t.Errorf("unexpected events: %+v", doc.TraceEvents)
	}
}
