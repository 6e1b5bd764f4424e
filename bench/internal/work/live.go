// Package work holds the benchmark's workloads: what each one sets up,
// what it times, how it checks every answer it times, and which
// end-to-end and per-layer metrics it reports.
package work

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"peertrack/bench/internal/fleet"
	"peertrack/bench/internal/gen"
	"peertrack/bench/internal/span"
	"peertrack/bench/internal/stats"
	"peertrack/internal/ctlapi"
	"peertrack/internal/metrics"
)

// Sizing shared by the live workloads.
const (
	// FleetSize is the number of nodes in the ring; NetworkSize is
	// pinned to it so the prefix length Lp is fixed.
	FleetSize = 16
	// Clients is the number of load goroutines, each with its own
	// keep-alive connections: one per core of the 2-core machine the
	// benchmark is sized for, so the load generator does not queue
	// behind itself.
	Clients = 2
	// SliceSeconds is the length of the slices the measured window is
	// cut into; a run reports the best tenth of their rates and of their
	// median latencies (see stats.BestLow).
	SliceSeconds = 0.25
	// TraceParts is the number of equal parts of a traced window;
	// spans are recorded during every other one.
	TraceParts = 5
)

// Config is what the command line gives a workload.
type Config struct {
	Seed    int64
	Seconds float64
	// Rec is nil on an untraced run. A traced run records spans during
	// alternate parts of the window, so one run yields both the
	// per-layer split and what recording costs.
	Rec *span.Recorder
}

// Result is what a workload hands back. A traced run fills PerLayer, an
// untraced one EndToEnd.
type Result struct {
	Attempted int
	Failed    int
	EndToEnd  map[string]float64
	PerLayer  map[string]float64
	// Problems describes the first few failed or wrong answers.
	Problems []string
}

func newResult() Result {
	return Result{EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}}
}

// fail counts one failed, refused or wrong answer.
func (r *Result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 5 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// timed is one operation as the load generator saw it.
type timed struct {
	op      gen.Op
	done    time.Time
	latency time.Duration // due (or sent, in a closed loop) to reply
	lag     time.Duration // due to sent; 0 in a closed loop
	traced  bool
	err     error
}

// client is one load goroutine's view of the fleet: the repo's own
// ctlapi.Client per member over this goroutine's connections.
type client struct {
	lane int
	f    *fleet.Fleet
	apis []*ctlapi.Client
	tr   *http.Transport
	rec  *span.Recorder
	ids  *atomic.Uint64
}

func newClients(f *fleet.Fleet, rec *span.Recorder) []*client {
	ids := new(atomic.Uint64)
	out := make([]*client, Clients)
	for i := range out {
		tr := &http.Transport{}
		hc := &http.Client{Transport: tr}
		c := &client{lane: i, f: f, tr: tr, rec: rec, ids: ids}
		for _, m := range f.Members {
			c.apis = append(c.apis, &ctlapi.Client{Base: m.URL, HTTPClient: hc})
		}
		out[i] = c
	}
	return out
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.tr.CloseIdleConnections()
	}
}

// do sends one request to member node and checks the answer. due is
// when the request should have been sent; the zero time means now (a
// closed loop). hops is how many stops of its route the object has made
// by the time the answer is read.
func (c *client) do(op gen.Op, node int, o gen.Object, hops int, due time.Time) timed {
	m := c.f.Members[node]
	api := c.apis[node]
	id := c.ids.Add(1)
	traced := c.rec.On()
	if traced {
		m.Expect(o.ID, id)
	}
	sent := time.Now()
	if due.IsZero() {
		due = sent
	}
	var err error
	switch op {
	case gen.Observe:
		err = api.ObserveAt(o.ID, o.Stamp(hops-1))
	case gen.Locate:
		var got ctlapi.LocateResponse
		if got, err = api.Locate(o.ID, time.Time{}); err == nil {
			if want := c.f.Members[o.Route[hops-1]].Node.Addr(); got.Node != want {
				err = fmt.Errorf("locate %s at node %d: got %s, want %s", o.ID, node, got.Node, want)
			}
		}
	case gen.Trace:
		var got ctlapi.TraceResponse
		if got, err = api.Trace(o.ID); err == nil {
			err = checkStops(c.f, o, hops, got.Stops)
		}
	}
	done := time.Now()
	if traced {
		c.rec.Add(span.Span{ID: id, Name: "request", Op: op.String(), Lane: c.lane, Node: node, Start: c.rec.Since(due), End: c.rec.Since(done)})
		c.rec.Add(span.Span{ID: id, Name: "ctlapi", Op: op.String(), Lane: c.lane, Node: node, Start: c.rec.Since(sent), End: c.rec.Since(done)})
	}
	return timed{op: op, done: done, latency: done.Sub(due), lag: sent.Sub(due), traced: traced, err: err}
}

// checkStops requires a trace to be exactly the first hops stops of the
// object's route with the arrival stamps it was observed with.
func checkStops(f *fleet.Fleet, o gen.Object, hops int, stops []ctlapi.Stop) error {
	if len(stops) != hops {
		return fmt.Errorf("trace %s: %d stops, want %d", o.ID, len(stops), hops)
	}
	for h, s := range stops {
		if want := f.Members[o.Route[h]].Node.Addr(); s.Node != want {
			return fmt.Errorf("trace %s: stop %d at %s, want %s", o.ID, h, s.Node, want)
		}
		if !s.Arrived.Equal(o.Stamp(h)) {
			return fmt.Errorf("trace %s: stop %d arrived %v, want %v", o.ID, h, s.Arrived, o.Stamp(h))
		}
	}
	return nil
}

// preload observes hops [from, to) of every object through the Node API
// in waves, one hop per wave with a barrier after it, so no two hops of
// one object race.
func preload(f *fleet.Fleet, objs []gen.Object, from, to int) error {
	for hop := from; hop < to; hop++ {
		errs := make([]error, Clients)
		var wg sync.WaitGroup
		for w := 0; w < Clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(objs); i += Clients {
					o := objs[i]
					if err := f.Members[o.Route[hop]].Node.ObserveAt(o.ID, o.Stamp(hop)); err != nil {
						errs[w] = fmt.Errorf("preload %s hop %d: %w", o.ID, hop, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		if err := f.Barrier(); err != nil {
			return err
		}
	}
	return nil
}

// verifyTraces asks, through the Node API and outside any timed window,
// for the trace of every object and requires the first hops(i) stops of
// its route. It counts each check as attempted.
func verifyTraces(f *fleet.Fleet, objs []gen.Object, hops func(i int) int, res *Result) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < Clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(objs); i += Clients {
				o := objs[i]
				stops, _, err := f.Members[(i+w)%len(f.Members)].Node.Trace(o.ID)
				if err == nil {
					cs := make([]ctlapi.Stop, len(stops))
					for k, s := range stops {
						cs[k] = ctlapi.Stop{Node: s.Node, Arrived: time.Unix(0, 0).Add(s.Arrived)}
					}
					err = checkStops(f, o, hops(i), cs)
				}
				mu.Lock()
				res.Attempted++
				if err != nil {
					res.fail("verify: %v", err)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
}

// flatten joins what each client timed.
func flatten(parts [][]timed) []timed {
	var all []timed
	for _, p := range parts {
		all = append(all, p...)
	}
	return all
}

// collect turns timed operations into samples stamped relative to the
// window's start, counting each as attempted and the failures as failed.
func collect(ops []timed, start time.Time, res *Result) []stats.Sample {
	out := make([]stats.Sample, 0, len(ops))
	for _, t := range ops {
		res.Attempted++
		if t.err != nil {
			res.fail("%v", t.err)
			continue
		}
		out = append(out, stats.Sample{At: t.done.Sub(start).Seconds(), Latency: float64(t.latency) / float64(time.Microsecond)})
	}
	return out
}

// p99 is the 99th percentile of v, or 0 when v has too few values for
// ten of them to lie beyond it.
func p99(v []float64) float64 {
	if len(v) < stats.P99Samples {
		return 0
	}
	return metrics.Percentile(v, 99)
}

// spanMetrics fills the per-layer metrics that come from spans: per
// operation kind the request percentiles, the node span's median, and
// ctlapi's self time (its span minus the node span inside it).
func spanMetrics(ops []timed, spans []span.Span, out map[string]float64) {
	for op := gen.Op(0); op < gen.NumOps; op++ {
		var lat []float64
		for _, t := range ops {
			if t.op == op && t.err == nil {
				lat = append(lat, float64(t.latency)/float64(time.Microsecond))
			}
		}
		out["request."+op.String()+"_p50_us"] = stats.Median(lat)
		out["request."+op.String()+"_p99_us"] = p99(lat)

		var mine []span.Span
		var node []float64
		for _, s := range spans {
			if s.Op != op.String() {
				continue
			}
			mine = append(mine, s)
			if strings.HasPrefix(s.Name, "node.") {
				node = append(node, float64(s.End-s.Start)/float64(time.Microsecond))
			}
		}
		self := span.SelfTimes(mine)["ctlapi"]
		out["ctlapi.self_us_"+op.String()] = ratio(float64(self.Self)/float64(time.Microsecond), float64(self.Count))
		out["node."+op.String()+"_us_p50"] = stats.Median(node)
	}
}

// tracingOverhead is how much slower the median operation was in the
// parts that recorded spans than in those that did not.
func tracingOverhead(ops []timed) float64 {
	var on, off []float64
	for _, t := range ops {
		if t.err != nil {
			continue
		}
		if t.traced {
			on = append(on, float64(t.latency))
		} else {
			off = append(off, float64(t.latency))
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return stats.Median(on)/stats.Median(off) - 1
}
