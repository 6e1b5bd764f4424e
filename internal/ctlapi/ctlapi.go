// Package ctlapi implements trackd's HTTP control plane: the JSON API
// an organisation's warehouse systems use to feed capture events into
// their PeerTrack node and to run traceability queries, plus the
// matching Go client used by trackctl.
//
// Endpoints:
//
//	POST /observe    {"object": "...", "at": RFC3339?}     → 202
//	POST /pack       {"parent", "children", "unpack"?}     → 202
//	GET  /locate     ?object=...&at=RFC3339?               → {node, hops}
//	GET  /trace      ?object=...                           → {stops, hops}
//	GET  /predict    ?object=...                           → {current, next, probability, eta}
//	GET  /inventory                                        → {count, objects}
//	GET  /status                                           → {addr, visits, indexed}
//	POST /snapshot                                         → persists state, {bytes}
//	GET  /metrics                                          → telemetry text exposition
//	GET  /debug/trace ?object=...&n=...                    → recent query spans
package ctlapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"peertrack/internal/telemetry"
)

// Backend is what the API serves — implemented by peertrack.Node via a
// thin adapter in cmd/trackd, and by fakes in tests.
type Backend interface {
	// Addr is the node's P2P address (its identity on traces).
	Addr() string
	// ObserveAt ingests one capture event.
	ObserveAt(object string, at time.Time) error
	// LocateAt answers L(o, t).
	LocateAt(object string, at time.Time) (node string, hops int, err error)
	// TraceOf answers the full trajectory. Non-zero from/to bound the
	// window.
	TraceOf(object string) (stops []Stop, hops int, err error)
	// TraceBetween answers the trajectory within [from, to].
	TraceBetween(object string, from, to time.Time) ([]Stop, int, error)
	// ResolveTrace answers the trajectory including containment
	// (movements made inside parent containers).
	ResolveTrace(object string) ([]Stop, int, error)
	// Pack and Unpack record aggregation events at this node.
	Pack(parent string, children []string) error
	Unpack(parent string, children []string) error
	// PredictOf estimates the next movement.
	PredictOf(object string) (Forecast, error)
	// InventoryList returns objects currently present at this node.
	InventoryList() []string
	// Stats returns local storage counters.
	Stats() (visits, indexed int)
	// Ring reports overlay state: successor, predecessor, and the
	// node's current prefix length.
	Ring() (succ, pred string, lp int)
	// Persist saves a snapshot, returning its size in bytes.
	Persist() (int64, error)
}

// ErrNotTracked must be returned (or wrapped) by backends for unknown
// objects so the API can answer 404.
var ErrNotTracked = errors.New("ctlapi: object not tracked")

// Stop is one trace stop.
type Stop struct {
	Node    string    `json:"node"`
	Arrived time.Time `json:"arrived"`
}

// Forecast is a movement prediction.
type Forecast struct {
	Current     string    `json:"current"`
	Next        string    `json:"next"`
	Probability float64   `json:"probability"`
	ETA         time.Time `json:"eta"`
	Hops        int       `json:"hops"`
}

// PackRequest is the POST /pack body; Unpack=true closes the
// containment instead of opening it.
type PackRequest struct {
	Parent   string   `json:"parent"`
	Children []string `json:"children"`
	Unpack   bool     `json:"unpack,omitempty"`
}

// ObserveRequest is the POST /observe body.
type ObserveRequest struct {
	Object string    `json:"object"`
	At     time.Time `json:"at,omitempty"`
}

// LocateResponse is the GET /locate reply.
type LocateResponse struct {
	Object string `json:"object"`
	Node   string `json:"node"`
	Hops   int    `json:"hops"`
}

// TraceResponse is the GET /trace reply.
type TraceResponse struct {
	Object string `json:"object"`
	Stops  []Stop `json:"stops"`
	Hops   int    `json:"hops"`
}

// InventoryResponse is the GET /inventory reply.
type InventoryResponse struct {
	Count   int      `json:"count"`
	Objects []string `json:"objects"`
}

// StatusResponse is the GET /status reply.
type StatusResponse struct {
	Addr        string `json:"addr"`
	Visits      int    `json:"visits"`
	Indexed     int    `json:"indexed"`
	Successor   string `json:"successor"`
	Predecessor string `json:"predecessor"`
	PrefixLen   int    `json:"prefix_len"`
}

// SnapshotResponse is the POST /snapshot reply.
type SnapshotResponse struct {
	Bytes int64 `json:"bytes"`
}

// Clock supplies the server's notion of "now", used to default the
// observation timestamp and the open end of trace windows. Injecting it
// keeps the handlers testable with a fixed clock and lets the
// deterministic harness drive a trackd control plane on virtual time.
type Clock func() time.Time

// Handler builds the control-plane HTTP handler on the wall clock.
func Handler(b Backend) http.Handler {
	return HandlerWithClock(b, nil)
}

// HandlerWithClock builds the control-plane HTTP handler with an
// injected clock; nil means time.Now.
func HandlerWithClock(b Backend, now Clock) http.Handler {
	return HandlerWithTelemetry(b, now, nil)
}

// TraceDebugResponse is the GET /debug/trace reply: the most recent
// query spans, newest first.
type TraceDebugResponse struct {
	Count int              `json:"count"`
	Spans []telemetry.Span `json:"spans"`
}

// HandlerWithTelemetry builds the control-plane HTTP handler and
// additionally exposes the node's telemetry registry:
//
//	GET /metrics      — plain-text exposition of every counter, gauge
//	                    and histogram (telemetry.Snapshot.Text format)
//	GET /debug/trace  — recent query spans as JSON; ?object= filters to
//	                    one object's spans, ?n= caps the count (default 20)
//
// Control-plane requests are counted into the registry with bounded
// cardinality (a total, one counter per method, and a latency
// histogram — never per-path or per-object). A nil registry serves an
// empty exposition and no spans, and skips request accounting.
func HandlerWithTelemetry(b Backend, now Clock, reg *telemetry.Registry) http.Handler {
	if now == nil {
		now = time.Now
	}
	mux := apiMux(b, now)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, reg.Snapshot().Text())
	})
	mux.HandleFunc("GET /debug/trace", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		n := 20
		if v := q.Get("n"); v != "" {
			p, err := strconv.Atoi(v)
			if err != nil || p <= 0 {
				httpErr(w, http.StatusBadRequest, fmt.Errorf("bad n %q", v))
				return
			}
			n = p
		}
		var spans []telemetry.Span
		if obj := q.Get("object"); obj != "" {
			spans = reg.Tracer().ForKey(obj, n)
		} else {
			spans = reg.Tracer().Recent(n)
		}
		writeJSON(w, TraceDebugResponse{Count: len(spans), Spans: spans})
	})
	return countRequests(reg, mux)
}

// CountConns returns an http.Server.ConnState hook that counts accepted
// control connections into reg's http.conns.opened. Beside
// http.requests it shows connection churn from outside: clients that
// reuse their connections open a handful, a client that abandons its
// responses opens one per request.
func CountConns(reg *telemetry.Registry) func(net.Conn, http.ConnState) {
	opened := reg.Counter("http.conns.opened")
	return func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Inc()
		}
	}
}

// countRequests wraps the control-plane mux with request accounting:
// http.requests, http.requests.method.*, and an http.request.latency
// histogram on the registry's clock.
func countRequests(reg *telemetry.Registry, next http.Handler) http.Handler {
	if reg == nil {
		return next
	}
	total := reg.Counter("http.requests")
	latency := reg.Histogram("http.request.latency", telemetry.LatencyBuckets())
	byMethod := map[string]*telemetry.Counter{
		http.MethodGet:  reg.Counter("http.requests.method.GET"),
		http.MethodPost: reg.Counter("http.requests.method.POST"),
	}
	other := reg.Counter("http.requests.method.other")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := reg.Now()
		total.Inc()
		if c, ok := byMethod[r.Method]; ok {
			c.Inc()
		} else {
			other.Inc()
		}
		next.ServeHTTP(w, r)
		latency.Observe(int64(reg.Now() - start))
	})
}

// apiMux builds the core control-plane routes.
func apiMux(b Backend, now Clock) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /observe", func(w http.ResponseWriter, r *http.Request) {
		var req ObserveRequest
		if !readJSON(w, r, &req) {
			return
		}
		if req.Object == "" {
			httpErr(w, http.StatusBadRequest, errors.New("object required"))
			return
		}
		at := req.At
		if at.IsZero() {
			at = now()
		}
		if err := b.ObserveAt(req.Object, at); err != nil {
			httpErr(w, http.StatusInternalServerError, err)
			return
		}
		writeAccepted(w)
	})
	mux.HandleFunc("GET /locate", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		obj := q.Get("object")
		if obj == "" {
			httpErr(w, http.StatusBadRequest, errors.New("object required"))
			return
		}
		at := now()
		if v := q.Get("at"); v != "" {
			t, err := time.Parse(time.RFC3339, v)
			if err != nil {
				httpErr(w, http.StatusBadRequest, fmt.Errorf("bad at: %w", err))
				return
			}
			at = t
		}
		node, hops, err := b.LocateAt(obj, at)
		if err != nil {
			httpErr(w, statusFor(err), err)
			return
		}
		writeJSON(w, LocateResponse{Object: obj, Node: node, Hops: hops})
	})
	mux.HandleFunc("GET /trace", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		obj := q.Get("object")
		if obj == "" {
			httpErr(w, http.StatusBadRequest, errors.New("object required"))
			return
		}
		var stops []Stop
		var hops int
		var err error
		switch {
		case q.Get("resolve") == "true":
			stops, hops, err = b.ResolveTrace(obj)
		case q.Get("from") != "" || q.Get("to") != "":
			var from, to time.Time
			if from, err = parseTimeParam(q.Get("from"), time.Unix(0, 0)); err != nil {
				httpErr(w, http.StatusBadRequest, err)
				return
			}
			if to, err = parseTimeParam(q.Get("to"), now()); err != nil {
				httpErr(w, http.StatusBadRequest, err)
				return
			}
			stops, hops, err = b.TraceBetween(obj, from, to)
		default:
			stops, hops, err = b.TraceOf(obj)
		}
		if err != nil {
			httpErr(w, statusFor(err), err)
			return
		}
		writeJSON(w, TraceResponse{Object: obj, Stops: stops, Hops: hops})
	})
	mux.HandleFunc("POST /pack", func(w http.ResponseWriter, r *http.Request) {
		var req PackRequest
		if !readJSON(w, r, &req) {
			return
		}
		if req.Parent == "" || len(req.Children) == 0 {
			httpErr(w, http.StatusBadRequest, errors.New("parent and children required"))
			return
		}
		var err error
		if req.Unpack {
			err = b.Unpack(req.Parent, req.Children)
		} else {
			err = b.Pack(req.Parent, req.Children)
		}
		if err != nil {
			httpErr(w, http.StatusInternalServerError, err)
			return
		}
		writeAccepted(w)
	})
	mux.HandleFunc("GET /predict", func(w http.ResponseWriter, r *http.Request) {
		obj := r.URL.Query().Get("object")
		if obj == "" {
			httpErr(w, http.StatusBadRequest, errors.New("object required"))
			return
		}
		f, err := b.PredictOf(obj)
		if err != nil {
			httpErr(w, statusFor(err), err)
			return
		}
		writeJSON(w, f)
	})
	mux.HandleFunc("GET /inventory", func(w http.ResponseWriter, r *http.Request) {
		objs := b.InventoryList()
		writeJSON(w, InventoryResponse{Count: len(objs), Objects: objs})
	})
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		visits, indexed := b.Stats()
		succ, pred, lp := b.Ring()
		writeJSON(w, StatusResponse{
			Addr: b.Addr(), Visits: visits, Indexed: indexed,
			Successor: succ, Predecessor: pred, PrefixLen: lp,
		})
	})
	mux.HandleFunc("POST /snapshot", func(w http.ResponseWriter, r *http.Request) {
		n, err := b.Persist()
		if err != nil {
			httpErr(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, SnapshotResponse{Bytes: n})
	})
	return mux
}

func parseTimeParam(v string, def time.Time) (time.Time, error) {
	if v == "" {
		return def, nil
	}
	t, err := time.Parse(time.RFC3339, v)
	if err != nil {
		return time.Time{}, fmt.Errorf("bad time %q: %w", v, err)
	}
	return t, nil
}

func statusFor(err error) int {
	if errors.Is(err, ErrNotTracked) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// maxBodyBytes bounds what a POST may make the node read and hold: a
// capture event is tens of bytes, a pack request a few EPCs.
const maxBodyBytes = 1 << 20

// readJSON decodes the request body, bounded by maxBodyBytes, into v.
// On failure it has written the reply — 413 past the bound, else 400 —
// and reports false.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	httpErr(w, code, err)
	return false
}

// writeAccepted is the 202 reply. It names no Content-Type: touching
// the header map costs five allocations per accepted event, sniffing
// costs none, and no client reads this body.
func writeAccepted(w http.ResponseWriter) {
	w.WriteHeader(http.StatusAccepted)
	io.WriteString(w, "{\"ok\":true}\n")
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func httpErr(w http.ResponseWriter, code int, err error) {
	http.Error(w, err.Error(), code)
}
