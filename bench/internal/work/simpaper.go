package work

import (
	"math/rand"
	"time"

	"peertrack/bench/internal/span"
	"peertrack/bench/internal/stats"
	"peertrack/internal/core"
	"peertrack/internal/moods"
	"peertrack/internal/workload"
)

// Sizing of sim-paper: the paper's Section V workload (10 % of each
// node's objects move along a trace of 10 nodes) at a size one
// repetition of which takes about a second.
const (
	SimNodes          = 128
	SimObjectsPerNode = 500
	SimQueries        = 10000
	// SimMinReps is the fewest repetitions a run makes, however short
	// the measured time; a median needs three.
	SimMinReps = 3
)

// SimPaper is the sim-paper workload: the path every figure and chaos
// sweep runs, with no sockets. Each repetition generates the workload,
// builds a fresh network, plays every observation through the event
// kernel with group indexing, then asks seeded full-trace queries, each
// timed and checked against the network's ground-truth oracle.
// Repetitions run until the measured time is used up; all use the same
// seed, so their message counts must be identical.
func SimPaper(cfg Config) (Result, error) {
	res := newResult()

	var setups, generates, builds, runs, rates, p50s, msgs, bytesPerObs, hops []float64
	var all []float64 // every query's latency
	cfg.Rec.SetOn(true)
	start := time.Now()
	for rep := 0; rep < SimMinReps || time.Since(start).Seconds() < cfg.Seconds; rep++ {
		phase := func(name string, from time.Time) float64 {
			if cfg.Rec.On() {
				cfg.Rec.Add(span.Span{ID: uint64(rep + 1), Name: name, Lane: rep, Node: -1, Start: cfg.Rec.Since(from), End: cfg.Rec.Now()})
			}
			return time.Since(from).Seconds()
		}
		repStart := time.Now()

		names := make([]moods.NodeName, SimNodes)
		for i := range names {
			names[i] = core.NodeNameFor(i)
		}
		wl, err := workload.PaperSpec{
			Nodes:          names,
			ObjectsPerNode: SimObjectsPerNode,
			MoveFraction:   0.10,
			TraceLen:       10,
			Grouped:        true,
			Seed:           cfg.Seed,
		}.Generate()
		if err != nil {
			return res, err
		}
		generates = append(generates, phase("workload.generate", repStart))

		t := time.Now()
		nw, err := core.BuildNetwork(core.NetworkConfig{
			Nodes:  SimNodes,
			Seed:   cfg.Seed,
			Scheme: core.Scheme2,
			Peer:   core.Config{Mode: core.GroupIndexing},
		})
		if err != nil {
			return res, err
		}
		builds = append(builds, phase("core.build", t))

		t = time.Now()
		if err := nw.ScheduleAll(wl.Observations); err != nil {
			return res, err
		}
		nw.StartWindows(wl.Horizon + 2*time.Second)
		phase("core.schedule", t)
		setups = append(setups, time.Since(repStart).Seconds())

		before := nw.Stats().Snapshot()
		w := openWindow(nw.Telemetry.Snapshot)
		nw.Run()
		w.close()
		run := phase("sim.run", w.start)
		delta := nw.Stats().Snapshot().Delta(before)
		obs := float64(len(wl.Observations))
		// The counts repeat from repetition to repetition; keep the last.
		w.layerMetrics(obs, obs, res.PerLayer)
		runs = append(runs, run)
		rates = append(rates, obs/run)
		msgs = append(msgs, float64(delta.Messages)/obs)
		bytesPerObs = append(bytesPerObs, float64(delta.Bytes)/obs)

		t = time.Now()
		rng := rand.New(rand.NewSource(cfg.Seed + 13))
		lat := make([]float64, SimQueries)
		totalHops := 0
		for q := range lat {
			obj := wl.Movers[rng.Intn(len(wl.Movers))]
			peer := nw.Peers()[rng.Intn(SimNodes)]
			q0 := time.Now()
			got, err := peer.FullTrace(obj)
			lat[q] = float64(time.Since(q0)) / float64(time.Microsecond)
			res.Attempted++
			if err != nil {
				res.fail("sim trace %s: %v", obj, err)
			} else if !got.Path.Equal(nw.Oracle.FullTrace(obj)) {
				res.fail("sim trace %s: path differs from the oracle's", obj)
			}
			totalHops += got.Hops
		}
		phase("core.queries", t)
		all = append(all, lat...)
		p50s = append(p50s, stats.Median(lat))
		hops = append(hops, float64(totalHops)/SimQueries)
		phase("rep", repStart)
	}

	// One seed, one workload: every repetition must count the same
	// messages and the same hops.
	for i := range msgs {
		if msgs[i] != msgs[0] || hops[i] != hops[0] {
			res.fail("repetition %d counted %v msgs/obs and %v hops/trace, repetition 0 %v and %v", i, msgs[i], hops[i], msgs[0], hops[0])
		}
	}

	res.EndToEnd["setup_s"] = stats.Median(setups)
	// A repetition is this workload's slice.
	res.EndToEnd["throughput_per_s"] = stats.BestHigh(rates)
	res.EndToEnd["latency_p50_us"] = stats.BestLow(p50s)
	res.EndToEnd["msgs_per_op"] = msgs[0]
	res.EndToEnd["peak_rss_mb"] = peakRSSMB()

	res.PerLayer["workload.generate_s"] = stats.Median(generates)
	res.PerLayer["core.build_s"] = stats.Median(builds)
	res.PerLayer["sim.run_s"] = stats.Median(runs)
	res.PerLayer["core.index_ns_per_obs"] = 1e9 / stats.Median(rates)
	res.PerLayer["core.trace_hops_mean"] = hops[0]
	res.PerLayer["transport.calls_per_op"] = msgs[0] / 2
	res.PerLayer["transport.declared_bytes_per_obs"] = bytesPerObs[0]
	res.PerLayer["request.trace_p50_us"] = res.EndToEnd["latency_p50_us"]
	res.PerLayer["request.trace_p99_us"] = p99(all)
	return res, nil
}
