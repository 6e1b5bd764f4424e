// Package transport abstracts message passing between PeerTrack nodes.
//
// The Chord overlay and the traceability layer are written against the
// Network interface, so the identical protocol code runs over two
// implementations:
//
//   - Memory: an instrumented in-process network for experiments. Every
//     call is dispatched synchronously, with optional fault injection
//     (drop rates, partitions, dead nodes). This is the measurement
//     substrate standing in for OverSim.
//   - TCP: a real network transport using length-prefixed frames with
//     one fixed layout per message type over TCP with connection
//     pooling, used by cmd/trackd.
//
// A call carries one request and one response message; both directions
// are counted. Every call outcome is recorded exactly once, into the
// transport.* instruments of a telemetry registry (see Stats); Snapshot
// and ByType are read-only views over those instruments. Payload types
// must be registered (see RegisterLayout and Register).
package transport

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"peertrack/internal/telemetry"
)

// Addr identifies a node endpoint. For the memory transport it is an
// arbitrary unique name; for TCP it is a dialable "host:port".
type Addr string

// Handler processes one inbound request and returns a response. Handlers
// must be safe for concurrent use: the TCP transport invokes them from
// per-connection goroutines.
type Handler func(from Addr, req any) (any, error)

// Network moves requests between registered endpoints.
type Network interface {
	// Register installs a handler for addr. Registering an address twice
	// replaces the handler.
	Register(addr Addr, h Handler) error
	// Unregister removes addr; subsequent calls to it fail with
	// ErrUnreachable.
	Unregister(addr Addr)
	// Call sends req from -> to and waits for the response.
	Call(from, to Addr, req any) (any, error)
	// Stats returns the live counter set for this network.
	Stats() *Stats
}

// ErrUnreachable is returned when the destination is not registered,
// dead, or partitioned away from the caller.
var ErrUnreachable = errors.New("transport: destination unreachable")

// RemoteError wraps an application-level error returned by the remote
// handler, distinguishing it from transport failures.
type RemoteError struct {
	Msg string
}

func (e *RemoteError) Error() string { return "transport: remote error: " + e.Msg }

// WireSizer lets a message report its approximate wire size in bytes so
// the memory transport can account "total volume of messages
// transferred" (the paper's Fig. 6 metric) without encoding every
// message. Messages that do not implement it are charged DefaultMsgSize.
type WireSizer interface {
	WireSize() int
}

// DefaultMsgSize is the byte charge for messages that do not implement
// WireSizer: a small fixed header plus addressing overhead.
const DefaultMsgSize = 64

// sizeOf is the charge for a message whose type has no layout. A laid-out
// type is charged by its payloadSize instead: this assertion, one call
// site for every type, rebuilds the site's type cache now and then while
// a type is missing from it, and the rebuild allocates.
func sizeOf(v any) int {
	if s, ok := v.(WireSizer); ok {
		return DefaultMsgSize + s.WireSize()
	}
	return DefaultMsgSize
}

// payloadSize is sizeOf for values of type T, without an interface
// assertion: T's WireSize method is found once, by reflection, and called
// as the plain function it is.
func payloadSize[T any]() func(any) int {
	t := reflect.TypeFor[T]()
	if !t.Implements(reflect.TypeFor[WireSizer]()) {
		return func(any) int { return DefaultMsgSize }
	}
	m, _ := t.MethodByName("WireSize")
	size := m.Func.Interface().(func(T) int)
	return func(v any) int { return DefaultMsgSize + size(v.(T)) }
}

// typeCounterPrefix starts the name of every per-request-type call
// counter: "transport.call.type.chord.pingReq".
const typeCounterPrefix = "transport.call.type."

// outcome classifies how one call ended, for accounting.
type outcome uint8

const (
	// answered: request and response both crossed the wire.
	answered outcome = iota
	// answeredErr: as answered, but the remote handler returned an error.
	answeredErr
	// dropped: the request was emitted and lost in flight (random loss,
	// a send/receive error, a timeout): one message, no response bytes.
	dropped
	// blocked: the destination was structurally unreachable (dead,
	// partitioned away, unregistered, dial refused). Billed like a drop
	// but counted separately so fault accounting conserves (see
	// Snapshot.Conserves).
	blocked
)

// Stats is a transport's accounting: a set of handles onto the
// transport.* instruments of one telemetry registry. The instruments
// are the only place a call is counted; Stats adds nothing of its own.
// A transport owns a private registry from construction and SetTelemetry
// re-points the handles at a shared one, so the same counters back the
// figures (Snapshot, ByType), /metrics, and the invariant checkers.
type Stats struct {
	reg *telemetry.Registry
	// byType holds each message type's size function and, for a request
	// type, the handle of its call counter in reg, resolved by the first
	// call that carries the type, so that no later call formats a name or
	// searches the registry. A pointer, because SetTelemetry replaces a
	// Stats by assignment; the replacement starts empty and resolves its
	// handles in the new registry.
	byType   *typeEntries
	calls    *telemetry.Counter
	messages *telemetry.Counter
	bytes    *telemetry.Counter
	failures *telemetry.Counter
	drops    *telemetry.Counter
	blocked  *telemetry.Counter
	stale    *telemetry.Counter
	reqBytes *telemetry.Histogram
	latency  *telemetry.Histogram
}

// newStats resolves the handles in reg; a nil reg gets a private
// registry on a zero clock.
func newStats(reg *telemetry.Registry) *Stats {
	if reg == nil {
		reg = telemetry.New(nil)
	}
	return &Stats{
		reg:      reg,
		byType:   new(typeEntries),
		calls:    reg.Counter("transport.calls"),
		messages: reg.Counter("transport.messages"),
		bytes:    reg.Counter("transport.bytes"),
		failures: reg.Counter("transport.failures"),
		drops:    reg.Counter("transport.drops"),
		blocked:  reg.Counter("transport.blocked"),
		stale:    reg.Counter("transport.conn.stale"),
		reqBytes: reg.Histogram("transport.call.bytes", telemetry.ByteBuckets()),
		latency:  reg.Histogram("transport.call.latency_ns", telemetry.LatencyBuckets()),
	}
}

// typeEntries maps message types to what a call's accounting needs of
// them, read-mostly: a lookup pays one atomic load and one probe; a
// change stores a copy.
type typeEntries struct {
	mu sync.Mutex // serialises the copies
	m  atomic.Pointer[map[reflect.Type]*typeEntry]
}

// typeEntry is what the accounting keeps of a message type, unchanged
// once published: its size function and, once it has been sent as a
// request, its call counter and the response type its first answer
// carried, with that type's size function, so that an answer costs a
// comparison and not a second lookup.
type typeEntry struct {
	size     func(any) int
	calls    *telemetry.Counter
	resp     reflect.Type
	respSize func(any) int
}

// typeOf returns the entry of v's type. A request's entry carries the
// type's call counter, "transport.call.type.chord.pingReq"; a type seen
// only in responses has none, and adds no counter to the registry.
func (s *Stats) typeOf(v any, request bool) *typeEntry {
	t := reflect.TypeOf(v)
	if m := s.byType.m.Load(); m != nil {
		if e, ok := (*m)[t]; ok && (e.calls != nil || !request) {
			return e
		}
	}
	return s.byType.update(t, func(e *typeEntry) {
		if request && e.calls == nil {
			e.calls = s.reg.Counter(typeCounterPrefix + fmt.Sprintf("%T", v))
		}
	})
}

// answerSize is the charge for resp, the answer to a request whose type
// has entry e.
func (s *Stats) answerSize(e *typeEntry, req, resp any) int {
	t := reflect.TypeOf(resp)
	if e.respSize != nil && e.resp == t {
		return e.respSize(resp)
	}
	size := s.typeOf(resp, false).size
	if e.respSize == nil && resp != nil {
		s.byType.update(reflect.TypeOf(req), func(e *typeEntry) { e.resp, e.respSize = t, size })
	}
	return size(resp)
}

// update publishes a copy of the map in which f has changed t's entry,
// made first if t has none, and returns the entry.
func (tc *typeEntries) update(t reflect.Type, f func(*typeEntry)) *typeEntry {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	m := map[reflect.Type]*typeEntry{}
	if old := tc.m.Load(); old != nil {
		m = maps.Clone(*old)
	}
	e := typeEntry{size: sizeOf}
	if old, ok := m[t]; ok {
		e = *old
	} else if l, ok := layoutByType.Load(t); ok {
		e.size = l.(*layout).size
	}
	f(&e)
	m[t] = &e
	tc.m.Store(&m)
	return &e
}

// begin reads the registry clock for latency measurement (zero on the
// private registry, and constant across a synchronous sim call).
func (s *Stats) begin() time.Duration { return s.reg.Now() }

// record accounts one finished call — the single place any transport
// event is counted. resp is only sized for answered outcomes.
func (s *Stats) record(o outcome, req, resp any, start time.Duration) {
	e := s.typeOf(req, true)
	size := e.size(req)
	s.calls.Inc()
	e.calls.Inc()
	s.reqBytes.Observe(int64(size))
	s.latency.Observe(int64(s.reg.Now() - start))
	msgs, wire := uint64(1), size // the request alone crossed the wire
	if o == answered || o == answeredErr {
		msgs, wire = 2, size+s.answerSize(e, req, resp)
	}
	s.messages.Add(msgs)
	s.bytes.Add(uint64(wire))
	if o != answered {
		s.failures.Inc()
	}
	switch o {
	case dropped:
		s.drops.Inc()
	case blocked:
		s.blocked.Inc()
	}
}

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	Messages uint64 // individual messages (2 per successful round trip)
	Bytes    uint64 // approximate wire bytes
	Calls    uint64 // round trips attempted
	Failures uint64 // calls that failed at transport or handler level
	Drops    uint64 // calls lost to random message loss (subset of Failures)
	Blocked  uint64 // calls to dead/partitioned/unregistered nodes (subset of Failures)
}

// Conserves reports whether the counters are internally consistent:
// every call either completed (2 messages) or was dropped/blocked (1
// message), drops and blocked are failures, and failures never exceed
// calls. The chaos harness asserts this after every scenario step.
func (s Snapshot) Conserves() bool {
	if s.Drops+s.Blocked > s.Failures || s.Failures > s.Calls {
		return false
	}
	return s.Messages == 2*s.Calls-s.Drops-s.Blocked
}

// Snapshot reads the counters. It is a consistent total whenever no
// call is concurrently in flight (the DES case); under concurrent
// traffic each counter is individually accurate to a point in time.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		Messages: s.messages.Value(),
		Bytes:    s.bytes.Value(),
		Calls:    s.calls.Value(),
		Failures: s.failures.Value(),
		Drops:    s.drops.Value(),
		Blocked:  s.blocked.Value(),
	}
}

// Delta returns the difference of two snapshots (s2 - s1 where s2 is the
// receiver argument ordering: now minus earlier).
func (a Snapshot) Delta(earlier Snapshot) Snapshot {
	return Snapshot{
		Messages: a.Messages - earlier.Messages,
		Bytes:    a.Bytes - earlier.Bytes,
		Calls:    a.Calls - earlier.Calls,
		Failures: a.Failures - earlier.Failures,
		Drops:    a.Drops - earlier.Drops,
		Blocked:  a.Blocked - earlier.Blocked,
	}
}

// ByType returns the per-request-type call counts, keyed by the Go type
// name ("chord.pingReq").
func (s *Stats) ByType() map[string]uint64 {
	out := make(map[string]uint64)
	for _, c := range s.reg.Snapshot().Counters {
		if name, ok := strings.CutPrefix(c.Name, typeCounterPrefix); ok {
			out[name] = c.Value
		}
	}
	return out
}
