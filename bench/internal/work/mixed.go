package work

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"peertrack/bench/internal/fleet"
	"peertrack/bench/internal/gen"
	"peertrack/bench/internal/stats"
	"peertrack/internal/metrics"
)

// Sizing of live-mixed-repl.
const (
	// MixedRate is the offered load in operations per second, split
	// evenly over the senders. The fleet stalls behind mirror writes at
	// every window flush; at 600 ops/s the stalls cover under a tenth of
	// the window and the median repeats, at 1000 they cover a quarter
	// and at 1500 the median itself doubles from run to run.
	MixedRate = 600
	// MixedObserve and MixedLocate are the shares of observes and
	// locates; the rest are traces.
	MixedObserve = 0.30
	MixedLocate  = 0.55
	// MixedSettled is the size of the set reads draw from; MixedHops is
	// how many stops every object has made before the window opens.
	MixedSettled = 2000
	MixedHops    = 3
)

// Mixed is the live-mixed-repl workload: an open loop at a fixed rate
// against a fleet that keeps two copies of all gateway state. Observes
// give each object of a moving set one new hop; locates and traces read
// a disjoint settled set. Window flushes are left to each node's own
// one-second timer. Every operation is timed from when it was due, so a
// stall counts against the operations queued behind it.
func Mixed(cfg Config) (Result, error) {
	res := newResult()

	setup := time.Now()
	f, err := fleet.Start(FleetSize, 2, cfg.Rec)
	if err != nil {
		return res, err
	}
	defer f.Close()
	total := int(MixedRate * cfg.Seconds)
	mix := gen.Mix(cfg.Seed, total, MixedObserve, MixedLocate)
	moves := 0
	for _, op := range mix {
		if op == gen.Observe {
			moves++
		}
	}
	objs := gen.Objects(cfg.Seed, MixedSettled+moves, FleetSize, MixedHops+1)
	settled, moving := objs[:MixedSettled], objs[MixedSettled:]
	if err := preload(f, objs, 0, MixedHops); err != nil {
		return res, err
	}
	clients := newClients(f, cfg.Rec)
	defer closeClients(clients)
	res.EndToEnd["setup_s"] = time.Since(setup).Seconds()

	window := time.Duration(cfg.Seconds * float64(time.Second))
	gap := time.Second / MixedRate
	parts := make([][]timed, Clients)
	var moved atomic.Int64 // moving objects given their new hop so far
	w := openWindow(f.Snapshot)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed*31 + int64(i)))
			for k := i; k < total; k += Clients {
				due := w.start.Add(time.Duration(k) * gap)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				if i == 0 {
					cfg.Rec.SetOn(int(time.Duration(k)*gap*TraceParts/window)%2 == 0)
				}
				var t timed
				if mix[k] == gen.Observe {
					o := moving[moved.Add(1)-1]
					t = c.do(gen.Observe, o.Route[MixedHops], o, MixedHops+1, due)
				} else {
					o := settled[rng.Intn(len(settled))]
					t = c.do(mix[k], rng.Intn(FleetSize), o, MixedHops, due)
				}
				parts[i] = append(parts[i], t)
			}
		}(i, c)
	}
	wg.Wait()
	w.close()
	cfg.Rec.SetOn(false)

	all := flatten(parts)
	samples := collect(all, w.start, &res)
	if err := f.Barrier(); err != nil {
		return res, err
	}
	verifyTraces(f, moving, func(int) int { return MixedHops + 1 }, &res)

	ops := float64(len(all))
	_, p50s := stats.Slices(samples, w.seconds, SliceSeconds)
	res.EndToEnd["throughput_per_s"] = ops / w.seconds
	res.EndToEnd["latency_p50_us"] = stats.BestLow(p50s)
	res.EndToEnd["msgs_per_op"] = w.msgsPerOp(ops)
	res.EndToEnd["peak_rss_mb"] = peakRSSMB()

	w.layerMetrics(ops, float64(moves), res.PerLayer)
	spanMetrics(all, cfg.Rec.Spans(), res.PerLayer)
	res.PerLayer["tracing.overhead_share"] = tracingOverhead(all)

	// How late the generator ran: the lag between an operation being
	// due and being sent, and whether it grew over the window.
	lags := make([]float64, len(all))
	var first, last []float64
	for i, t := range all {
		lags[i] = float64(t.lag) / float64(time.Microsecond)
		switch at := t.done.Sub(w.start); {
		case at < window/4:
			first = append(first, lags[i])
		case at >= window*3/4:
			last = append(last, lags[i])
		}
	}
	res.PerLayer["loadgen.send_lag_p50_us"] = stats.Median(lags)
	res.PerLayer["loadgen.send_lag_p99_us"] = metrics.Percentile(lags, 99)
	// Medians, so that one stall does not read as a growing backlog.
	res.PerLayer["loadgen.backlog_growth"] = ratio(stats.Median(last), stats.Median(first))
	return res, nil
}
