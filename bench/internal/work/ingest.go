package work

import (
	"sync"
	"time"

	"peertrack/bench/internal/fleet"
	"peertrack/bench/internal/gen"
	"peertrack/bench/internal/stats"
)

// IngestObjects is the number of objects that move in each wave of
// live-ingest; one wave is every object's next hop, about a second of
// work for the fleet.
const IngestObjects = 8000

// Ingest is the live-ingest workload: a closed loop of POST /observe in
// waves. Each wave posts the next hop of every object, then waits at a
// flush barrier, and the wave's clock stops at the barrier: the rate is
// capture events made queryable per second, not events accepted. Waves
// run until the measured time is used up. Afterwards every object's
// trace must be exactly the hops that were posted.
func Ingest(cfg Config) (Result, error) {
	res := newResult()

	setup := time.Now()
	f, err := fleet.Start(FleetSize, 1, cfg.Rec)
	if err != nil {
		return res, err
	}
	defer f.Close()
	objs := gen.Objects(cfg.Seed, IngestObjects, FleetSize, FleetSize)
	// First sightings go in through the Node API as set-up: they create
	// the index entries and fill the gateway caches, so every timed wave
	// is a move with its IOP stitch messages.
	if err := preload(f, objs, 0, 1); err != nil {
		return res, err
	}
	clients := newClients(f, cfg.Rec)
	defer closeClients(clients)
	res.EndToEnd["setup_s"] = time.Since(setup).Seconds()

	var all []timed
	var rates, p50s, barriers []float64
	hops := 1
	w := openWindow(f.Snapshot)
	for ; hops < FleetSize && time.Since(w.start).Seconds() < cfg.Seconds; hops++ {
		cfg.Rec.SetOn(hops%2 == 1)
		waveStart := time.Now()
		parts := make([][]timed, Clients)
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func(i int, c *client) {
				defer wg.Done()
				for k := i; k < len(objs); k += Clients {
					o := objs[k]
					parts[i] = append(parts[i], c.do(gen.Observe, o.Route[hops], o, hops+1, time.Time{}))
				}
			}(i, c)
		}
		wg.Wait()
		posted := time.Now()
		if err := f.Barrier(); err != nil {
			return res, err
		}
		wave := time.Since(waveStart).Seconds()
		barriers = append(barriers, float64(time.Since(posted))/float64(time.Millisecond))
		waveOps := flatten(parts)
		lat := make([]float64, len(waveOps))
		for i, t := range waveOps {
			lat[i] = float64(t.latency) / float64(time.Microsecond)
		}
		all = append(all, waveOps...)
		rates = append(rates, float64(len(objs))/wave)
		p50s = append(p50s, stats.Median(lat))
	}
	w.close()
	cfg.Rec.SetOn(false)

	collect(all, w.start, &res) // counts attempts and failures; the waves carry the timing
	verifyTraces(f, objs, func(int) int { return hops }, &res)

	ops := float64(len(all))
	// A wave is this workload's slice.
	res.EndToEnd["throughput_per_s"] = stats.BestHigh(rates)
	res.EndToEnd["latency_p50_us"] = stats.BestLow(p50s)
	res.EndToEnd["msgs_per_op"] = w.msgsPerOp(ops)
	res.EndToEnd["peak_rss_mb"] = peakRSSMB()

	w.layerMetrics(ops, ops, res.PerLayer)
	res.PerLayer["node.flush_barrier_ms"] = stats.Median(barriers)
	spanMetrics(all, cfg.Rec.Spans(), res.PerLayer)
	res.PerLayer["tracing.overhead_share"] = tracingOverhead(all)
	return res, nil
}
