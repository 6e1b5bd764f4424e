package work

import (
	"math/rand"
	"sync"
	"time"

	"peertrack/bench/internal/fleet"
	"peertrack/bench/internal/gen"
	"peertrack/bench/internal/span"
	"peertrack/bench/internal/stats"
)

// Sizing of the read workloads: the preloaded set every query draws
// from, and how many stops each object has made.
const (
	QueryObjects = 8000
	QueryHops    = 6
	// WarmUp is how long the loop runs untimed before the window opens.
	WarmUp = 500 * time.Millisecond
)

// Query is the live-query workload: the read path used two ways. Its
// measured window is GET /locate in a closed loop from a random node for
// a random object; a locate is about one P2P round trip, so the control
// API is most of its time, and the end-to-end metrics are its. A traced
// run goes on with GET /trace for half as long again: a trace walks the
// object's stops in sequence, one P2P round trip each, so TCP, gob and
// the resilience wrapper are most of its time. Its timings are
// per-layer metrics only (bench/README.md says why).
func Query(cfg Config) (Result, error) {
	res := newResult()

	setup := time.Now()
	f, err := fleet.Start(FleetSize, 1, cfg.Rec)
	if err != nil {
		return res, err
	}
	defer f.Close()
	objs := gen.Objects(cfg.Seed, QueryObjects, FleetSize, QueryHops)
	if err := preload(f, objs, 0, QueryHops); err != nil {
		return res, err
	}
	clients := newClients(f, cfg.Rec)
	defer closeClients(clients)

	// loop runs the closed loop of one operation kind for d and returns
	// what each client timed. A traced loop records spans during
	// alternate parts of d.
	loop := func(op gen.Op, start time.Time, d time.Duration, salt int64, traced bool) []timed {
		parts := make([][]timed, Clients)
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func(i int, c *client) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.Seed*31 + salt + int64(i)))
				for {
					elapsed := time.Since(start)
					if elapsed >= d {
						return
					}
					// Only client 0 switches recording, at part boundaries.
					if i == 0 {
						cfg.Rec.SetOn(traced && int(elapsed*TraceParts/d)%2 == 0)
					}
					o := objs[rng.Intn(len(objs))]
					parts[i] = append(parts[i], c.do(op, rng.Intn(FleetSize), o, QueryHops, time.Time{}))
				}
			}(i, c)
		}
		wg.Wait()
		cfg.Rec.SetOn(false)
		return flatten(parts)
	}
	// phase warms one operation kind up — connections, gateway caches
	// and the heap settle — and then times it for d.
	phase := func(op gen.Op, d time.Duration) (*window, []timed) {
		loop(op, time.Now(), WarmUp, 1000, false)
		if op == gen.Locate {
			res.EndToEnd["setup_s"] = time.Since(setup).Seconds()
		}
		w := openWindow(f.Snapshot)
		ops := loop(op, w.start, d, int64(op), true)
		w.close()
		return w, ops
	}
	// selfTime is what the node spent outside P2P calls: its mean span
	// minus the P2P call time per operation (upkeep calls included;
	// they are few).
	selfTime := func(op gen.Op, w *window, ops float64) {
		node := span.SelfTimes(cfg.Rec.Spans())["node."+op.String()]
		callNs, _ := w.hist("transport.call.latency_ns")
		res.PerLayer["core.self_us_"+op.String()] = ratio(float64(node.Total)/1e3, float64(node.Count)) - ratio(callNs/1e3, ops)
	}

	window := time.Duration(cfg.Seconds * float64(time.Second))
	w, all := phase(gen.Locate, window)
	samples := collect(all, w.start, &res)
	ops := float64(len(all))
	rates, p50s := stats.Slices(samples, cfg.Seconds, SliceSeconds)
	res.EndToEnd["throughput_per_s"] = stats.BestHigh(rates)
	res.EndToEnd["latency_p50_us"] = stats.BestLow(p50s)
	res.EndToEnd["msgs_per_op"] = w.msgsPerOp(ops)
	res.EndToEnd["peak_rss_mb"] = peakRSSMB()
	if cfg.Rec == nil {
		return res, nil
	}

	w.layerMetrics(ops, 0, res.PerLayer)
	selfTime(gen.Locate, w, ops)
	tw, traces := phase(gen.Trace, window/2)
	collect(traces, tw.start, &res) // counts attempts and failures
	hops, n := tw.hist("core.trace.hops")
	res.PerLayer["core.trace_hops_mean"] = ratio(hops, n)
	res.PerLayer["transport.calls_per_trace"] = ratio(tw.counter("transport.calls"), float64(len(traces)))
	selfTime(gen.Trace, tw, float64(len(traces)))
	res.PerLayer["tracing.overhead_share"] = tracingOverhead(all)
	spanMetrics(append(all, traces...), cfg.Rec.Spans(), res.PerLayer)
	return res, nil
}
