// Package span records the benchmark's own spans — around each call it
// makes into a layer — keeps them in memory during a traced run, and
// writes them out when the run ends.
package span

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval. Spans of one request share ID; nesting is
// by containment, so a span's parent is the narrowest span of the same
// ID that covers it.
type Span struct {
	ID    uint64
	Name  string        // "request", "ctlapi", "node.locate", "sim.run", ...
	Op    string        // "observe", "locate", "trace"; empty for phase spans
	Lane  int           // client goroutine (or repetition) the span ran on
	Node  int           // fleet member serving it; -1 when not applicable
	Start time.Duration // since the recorder's epoch
	End   time.Duration
}

// Recorder collects spans. A nil Recorder records nothing, so untraced
// runs pay one nil check per boundary.
type Recorder struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns a recorder that is switched off.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// SetOn switches recording; traced runs switch it on for alternate
// slices of the window to measure what recording costs.
func (r *Recorder) SetOn(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

// On reports whether spans are being kept.
func (r *Recorder) On() bool { return r != nil && r.on.Load() }

// Now is the time since the recorder's epoch.
func (r *Recorder) Now() time.Duration { return time.Since(r.epoch) }

// Since converts a wall-clock instant to recorder time.
func (r *Recorder) Since(t time.Time) time.Duration { return t.Sub(r.epoch) }

// Add keeps one span.
func (r *Recorder) Add(s Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Self is the time a span name spent outside its children.
type Self struct {
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // Total minus the part child spans cover
}

// SelfTimes nests the spans of each ID by containment and returns, per
// span name, the total duration and the self time: a span's duration
// minus the part of it that its direct children cover. Per ID the self
// times add up to the duration of the root span.
func SelfTimes(spans []Span) map[string]Self {
	byID := make(map[uint64][]Span)
	for _, s := range spans {
		byID[s.ID] = append(byID[s.ID], s)
	}
	out := make(map[string]Self)
	for _, group := range byID {
		// Parents sort before the spans they contain.
		sort.Slice(group, func(i, j int) bool {
			if group[i].Start != group[j].Start {
				return group[i].Start < group[j].Start
			}
			return group[i].End > group[j].End
		})
		covered := make([]time.Duration, len(group)) // by direct children
		var stack []int
		for i, s := range group {
			for len(stack) > 0 && group[stack[len(stack)-1]].End <= s.Start {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				p := stack[len(stack)-1]
				end := s.End
				if pe := group[p].End; end > pe {
					end = pe
				}
				covered[p] += end - s.Start
			}
			stack = append(stack, i)
		}
		for i, s := range group {
			e := out[s.Name]
			e.Count++
			e.Total += s.End - s.Start
			e.Self += s.End - s.Start - covered[i]
			out[s.Name] = e
		}
	}
	return out
}

// MaxFileSpans bounds the trace file; the metrics use every span, the
// file keeps the earliest ones of each operation kind, an equal share
// of the bound each, so a phase that comes late is in the file too.
const MaxFileSpans = 60000

// traceEvent is one complete event of the Chrome trace-event format,
// which chrome://tracing and ui.perfetto.dev open directly.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// WriteFile writes the spans to path as Chrome trace events: one
// process, one thread per lane, so the spans of a request stack.
func WriteFile(path, workload string, spans []Span) error {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	truncated := len(spans) > MaxFileSpans
	if truncated {
		count := map[string]int{}
		for _, s := range spans {
			count[s.Op] = 0
		}
		kept := spans[:0:0]
		for _, s := range spans {
			if count[s.Op] < MaxFileSpans/len(count) {
				count[s.Op]++
				kept = append(kept, s)
			}
		}
		spans = kept
	}
	events := make([]traceEvent, len(spans))
	for i, s := range spans {
		events[i] = traceEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: s.Lane,
			Args: map[string]any{"id": s.ID, "op": s.Op, "node": s.Node},
		}
	}
	data, err := json.Marshal(map[string]any{
		"traceEvents": events,
		"otherData":   map[string]any{"workload": workload, "truncated": truncated},
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
