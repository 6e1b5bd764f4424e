package telemetry

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"peertrack/internal/ids"
)

// Span is one finished query-shaped operation as read back from the
// tracer — a locate, a trace, a group-index arrival, a triangle
// delegation — with the causal hop chain it took through the network.
// Timestamps are registry-clock offsets (virtual time in the sim,
// time-since-startup on a live node). The text exists only here: a
// Recording stores what it was given and is rendered when read.
type Span struct {
	ID    uint64        `json:"id"`
	Op    string        `json:"op"`
	Key   string        `json:"key"`
	Start time.Duration `json:"start"`
	End   time.Duration `json:"end"`
	Hops  int           `json:"hops"`
	Err   string        `json:"err,omitempty"`
	Steps []Step        `json:"steps,omitempty"`
}

// Step is one hop in a span's causal chain: which node was consulted
// and why.
type Step struct {
	At   time.Duration `json:"at"`
	Node string        `json:"node"`
	Note string        `json:"note"`
}

// Op is the kind of operation a span records. Each kind keeps its own
// share of the ring, so frequent ops (index arrivals) cannot evict rare
// ones (the queries an operator asks /debug/trace about).
type Op uint8

const (
	OpIndex Op = iota
	OpDelegate
	OpLocate
	OpTrace
	numOps
)

var opNames = [numOps]string{"index", "delegate", "locate", "trace"}

// Note is the static text of one kind of step, declared once at package
// level by the code that records it. Each verb renders the step's next
// number as fmt would print that Go type — %d an Int, %t a Bool, %v a
// Dur, %b a Prefix (its binary digits) — and %s its Str.
type Note struct{ format string }

// NewNote declares a step text. A verb or argument count a step cannot
// hold is a programming error and panics here, at package init, rather
// than when somebody reads the span.
func NewNote(format string) *Note {
	n := &Note{format}
	(&record{note: n}).render()
	return n
}

// record is one recorded step, 64 bytes and no text: clock stamp, node,
// note, and the note's arguments — up to two numbers and one string.
// Arguments are immutable values by construction (no slices, pointers
// or interfaces), so rendering later shows what was true at the call.
type record struct {
	at   time.Duration
	node string
	note *Note
	str  string
	nums [2]int64
}

// inlineSteps is how many steps a recording holds without a second
// allocation: an index arrival's gateway/M2/M3 and a locate's gateway
// consultations fit; a long IOP walk spills into a grown slice.
const inlineSteps = 4

// maxPooledSteps bounds the spilled slice an evicted recording keeps for
// its next Start (4 KiB of records): a trace's dozen steps are not grown
// again, a maxWalk-long span's are not pinned in the pool.
const maxPooledSteps = 64

// Recording is a span being recorded. Start takes one from the pool of
// recordings evicted from a ring, steps land in its inline array (or in
// the spilled slice it kept), and Finish hands it to the tracer as is —
// nothing is copied or formatted until a reader asks. The caller must
// not touch a recording after Finish: it is reused once the ring
// overwrites it. All methods are no-ops on nil, so instrumented paths
// never branch on whether tracing is wired.
type Recording struct {
	tracer *Tracer
	id     uint64
	done   uint64        // finish order across all ops
	key    string        // object code; empty for a span keyed by prefix
	prefix ids.PrefixKey // group prefix, rendered on read
	start  time.Duration
	end    time.Duration
	hops   int
	err    string
	op     Op
	filled uint8 // numbers given to the newest step
	steps  []record
	inline [inlineSteps]record
}

// Tracer keeps the most recently finished spans in a fixed ring split
// evenly between the op kinds: the last capacity/4 spans of each kind
// are retrievable, older ones are overwritten. Span IDs come from an
// atomic sequence — strictly ordered in the single-threaded sim, merely
// unique under live concurrency.
type Tracer struct {
	reg *Registry
	seq atomic.Uint64

	mu    sync.Mutex
	ring  []*Recording   // op's share is ring[op*share : (op+1)*share]
	count [numOps]uint64 // spans of each kind recorded over the tracer's lifetime
	total uint64         // their sum
}

func newTracer(reg *Registry, capacity int) *Tracer {
	return &Tracer{reg: reg, ring: make([]*Recording, capacity)}
}

// evicted holds zeroed recordings that a ring overwrote, for any tracer's
// next Start. It is a package variable, not a Tracer field: the runtime
// keeps a pool reachable for two collections after its last use, and a
// pool inside a Tracer would keep a dropped registry — in a simulation,
// the whole network its clock reads — alive that long.
var evicted = sync.Pool{New: func() any { return new(Recording) }}

// Start opens a span keyed by an object code. Nil-safe: on a nil tracer
// it returns a nil recording.
func (t *Tracer) Start(op Op, key string) *Recording {
	if t == nil {
		return nil
	}
	s := evicted.Get().(*Recording)
	s.tracer, s.id, s.op, s.key, s.start = t, t.seq.Add(1), op, key, t.reg.Now()
	if s.steps == nil {
		s.steps = s.inline[:0]
	}
	return s
}

// StartPrefix opens a span keyed by a group prefix, whose text form is
// built when the span is read rather than per arrival.
func (t *Tracer) StartPrefix(op Op, key ids.PrefixKey) *Recording {
	s := t.Start(op, "")
	if s != nil {
		s.prefix = key
	}
	return s
}

// Step appends one hop to the span's chain. The note's arguments follow
// in verb order: sp.Step(node, noteM2).Int(len(batch)).Str(dest).
func (s *Recording) Step(node string, note *Note) *Recording {
	if s != nil {
		s.steps = append(s.steps, record{at: s.tracer.reg.Now(), node: node, note: note})
		s.filled = 0
	}
	return s
}

func (s *Recording) num(v int64) *Recording {
	if s != nil && int(s.filled) < len(record{}.nums) {
		s.steps[len(s.steps)-1].nums[s.filled] = v
		s.filled++
	}
	return s
}

// Int, Dur, Prefix and Bool give the newest step its next number.
func (s *Recording) Int(v int) *Recording              { return s.num(int64(v)) }
func (s *Recording) Dur(v time.Duration) *Recording    { return s.num(int64(v)) }
func (s *Recording) Prefix(v ids.PrefixKey) *Recording { return s.num(int64(v)) }
func (s *Recording) Bool(v bool) *Recording {
	if v {
		return s.num(1)
	}
	return s.num(0)
}

// Str gives the newest step its string.
func (s *Recording) Str(v string) *Recording {
	if s != nil {
		s.steps[len(s.steps)-1].str = v
	}
	return s
}

// Finish closes the span and commits it to its op's share of the ring.
// Hops is the operation's reported hop count; err (nil for success) is
// recorded as text so spans stay JSON-encodable and DeepEqual-comparable.
// The recording it overwrites goes back to the pool: readers reach a
// recording only through the ring and under t.mu, so once its slot is
// taken nothing can.
func (s *Recording) Finish(hops int, err error) {
	if s == nil {
		return
	}
	t := s.tracer
	s.end = t.reg.Now()
	s.hops = hops
	if err != nil {
		s.err = err.Error()
	}
	share := uint64(len(t.ring)) / uint64(numOps)
	t.mu.Lock()
	slot := &t.ring[uint64(s.op)*share+t.count[s.op]%share]
	old := *slot
	*slot = s
	t.count[s.op]++
	t.total++
	s.done = t.total
	t.mu.Unlock()
	if old != nil {
		// A step slice that spilled out of the inline array stays with
		// the recording, cleared (append wrote nothing past its length),
		// unless it grew past maxPooledSteps.
		steps := old.steps
		*old = Recording{}
		if cap(steps) > inlineSteps && cap(steps) <= maxPooledSteps {
			clear(steps)
			old.steps = steps[:0]
		}
		evicted.Put(old)
	}
}

// Total is the number of spans recorded over the tracer's lifetime
// (including any that have since been overwritten in the ring).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Recent returns up to n of the most recently finished spans of any
// kind, newest first.
func (t *Tracer) Recent(n int) []Span {
	return t.filter(n, func(*Recording) bool { return true })
}

// ForKey returns up to n of the most recent spans for the given key
// (object code or group prefix), newest first.
func (t *Tracer) ForKey(key string, n int) []Span {
	return t.filter(n, func(s *Recording) bool { return s.keyText() == key })
}

func (t *Tracer) filter(n int, keep func(*Recording) bool) []Span {
	if t == nil || n <= 0 {
		return nil
	}
	// A recording is zeroed and reused once Finish evicts it, so matching
	// and rendering hold the lock that eviction takes.
	t.mu.Lock()
	defer t.mu.Unlock()
	held := slices.DeleteFunc(slices.Clone(t.ring), func(s *Recording) bool { return s == nil || !keep(s) })
	slices.SortFunc(held, func(a, b *Recording) int { return cmp.Compare(b.done, a.done) })
	var out []Span
	for _, s := range held[:min(n, len(held))] {
		out = append(out, s.render())
	}
	return out
}

func (s *Recording) keyText() string {
	if s.key != "" {
		return s.key
	}
	return s.prefix.String()
}

// render builds the read-side form of a finished recording.
func (s *Recording) render() Span {
	out := Span{
		ID: s.id, Op: opNames[s.op], Key: s.keyText(),
		Start: s.start, End: s.end, Hops: s.hops, Err: s.err,
	}
	for i := range s.steps {
		out.Steps = append(out.Steps, s.steps[i].render())
	}
	return out
}

func (r *record) render() Step {
	f, nums := r.note.format, r.nums[:]
	b := make([]byte, 0, len(f)+len(r.str)+16)
	for i := 0; i < len(f); i++ {
		if f[i] != '%' || i+1 == len(f) {
			b = append(b, f[i])
			continue
		}
		i++
		switch f[i] {
		case 's':
			b = append(b, r.str...)
			continue
		case 'd':
			b = strconv.AppendInt(b, nums[0], 10)
		case 't':
			b = strconv.AppendBool(b, nums[0] != 0)
		case 'v':
			b = append(b, time.Duration(nums[0]).String()...)
		case 'b':
			b = append(b, ids.PrefixKey(nums[0]).String()...)
		default:
			panic("telemetry: unknown verb in note " + strconv.Quote(f))
		}
		nums = nums[1:] // a third number fails the next index, at the note's declaration
	}
	return Step{At: r.at, Node: r.node, Note: string(b)}
}

// String renders the span as a single line:
//
//	locate key=obj-17 t=[1.2s→1.2s] hops=4 steps=3 ok
func (s Span) String() string {
	status := "ok"
	if s.Err != "" {
		status = "err=" + s.Err
	}
	return fmt.Sprintf("%s key=%s t=[%v→%v] hops=%d steps=%d %s",
		s.Op, s.Key, s.Start, s.End, s.Hops, len(s.Steps), status)
}

// Detail renders the span with one indented line per step.
func (s Span) Detail() string {
	var b strings.Builder
	b.WriteString(s.String())
	for _, st := range s.Steps {
		fmt.Fprintf(&b, "\n  %v %s: %s", st.At, st.Node, st.Note)
	}
	return b.String()
}
