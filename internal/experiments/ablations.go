package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"peertrack/internal/core"
	"peertrack/internal/metrics"
	"peertrack/internal/moods"
)

// Ablations isolate the design choices DESIGN.md calls out: the Data
// Triangle, the adaptive capture window, the delegation fraction α, and
// the gateway-address cache.

// TriangleRow compares group indexing with and without Data Triangle
// delegation under a hot-group workload.
type TriangleRow struct {
	Delegation   bool
	MaxMeanRatio float64 // index-load imbalance across nodes
	Gini         float64
	KMsgs        float64 // indexing cost
	MeanHops     float64 // lookup cost after the fact
}

// AblationTriangle runs a workload whose arrivals concentrate into few
// groups (small Lp via Scheme1 on a small network) so single gateways
// overload, then measures balance with delegation on and off.
func AblationTriangle(s Scale) ([]TriangleRow, error) {
	s.fill()
	out := make([]TriangleRow, 0, 2)
	for _, delegation := range []bool{false, true} {
		cfg := core.Config{Mode: core.GroupIndexing}
		if delegation {
			cfg.DelegationThreshold = 64
			cfg.DelegationAlpha = 0.5
		} else {
			cfg.DelegationThreshold = 1 << 30 // never delegate
		}
		run, err := Load(core.NetworkConfig{
			Nodes:  s.Nodes,
			Seed:   s.Seed,
			Scheme: core.Scheme1, // few groups: the stress case
			Peer:   cfg,
		}, sectionV(s.MaxVolume, false))
		if err != nil {
			return nil, err
		}
		nw, res := run.Net, run.Work

		loads := nw.IndexLoads()
		var hops metrics.Summary
		rng := rand.New(rand.NewSource(s.Seed + 21))
		for q := 0; q < s.Queries; q++ {
			obj := res.Objects[rng.Intn(len(res.Objects))]
			r, err := nw.Peers()[rng.Intn(s.Nodes)].FullTrace(obj)
			if err != nil {
				return nil, fmt.Errorf("ablation triangle query: %w", err)
			}
			hops.Add(float64(r.Hops))
		}
		out = append(out, TriangleRow{
			Delegation:   delegation,
			MaxMeanRatio: metrics.MaxMeanRatio(loads),
			Gini:         metrics.Gini(loads),
			KMsgs:        run.KMsgs(),
			MeanHops:     hops.Mean(),
		})
	}
	return out, nil
}

// WindowRow compares a fixed-interval window against the adaptive
// T_max/N_max window under a bursty arrival stream.
type WindowRow struct {
	Adaptive       bool
	MaxBatch       int     // largest indexing message (events)
	MeanBatch      float64 // mean indexing message size
	P99DelayMillis float64 // capture-to-flush delay p99
	Windows        int
}

// AblationAdaptiveWindow measures what N_max buys: bounded message
// size under bursts, without sacrificing timeliness in quiet periods.
func AblationAdaptiveWindow(s Scale) ([]WindowRow, error) {
	s.fill()
	out := make([]WindowRow, 0, 2)
	for _, adaptive := range []bool{false, true} {
		nmax := 1 << 30 // fixed window: size unbounded
		if adaptive {
			nmax = 128
		}
		nw, err := core.BuildNetwork(core.NetworkConfig{
			Nodes: 16,
			Seed:  s.Seed,
			Peer:  core.Config{Mode: core.GroupIndexing, NMax: nmax},
		})
		if err != nil {
			return nil, err
		}
		// Bursty stream at one node: bursts of 400 tags within 50ms,
		// long gaps between — a pallet rolling past a dock door.
		rng := rand.New(rand.NewSource(s.Seed + 3))
		p := nw.Peers()[0]
		var pending []time.Duration // capture times of buffered events
		var batchSizes []int
		var delays []float64
		account := func() {
			batchSizes = append(batchSizes, len(pending))
			now := nw.Kernel.Now()
			for _, at := range pending {
				delays = append(delays, float64(now-at)/float64(time.Millisecond))
			}
			pending = nil
		}
		flush := func() {
			if p.Buffered() > 0 {
				p.FlushWindow()
				account()
			}
		}
		last := time.Duration(0)
		const bursts = 12
		for b := 0; b < bursts; b++ {
			burstAt := time.Duration(b+1) * 2 * time.Second
			last = burstAt + 50*time.Millisecond
			for i := 0; i < 400; i++ {
				obj := moods.ObjectID(fmt.Sprintf("burst-%d-%d", b, i))
				obsAt := burstAt + time.Duration(rng.Int63n(int64(50*time.Millisecond)))
				nw.Kernel.At(obsAt, func() {
					pending = append(pending, obsAt)
					p.Observe(moods.Observation{Object: obj, Node: p.Name(), At: obsAt})
					if p.Buffered() == 0 { // N_max auto-flush fired
						account()
					}
				})
			}
		}
		// Periodic T_interval invocation at 1s.
		nw.Kernel.Every(time.Second, last+2*time.Second, flush)
		nw.Kernel.Run()
		flush()
		maxBatch, events := 0, 0
		for _, n := range batchSizes {
			events += n
			if n > maxBatch {
				maxBatch = n
			}
		}
		mean := 0.0
		if len(batchSizes) > 0 {
			mean = float64(events) / float64(len(batchSizes))
		}
		out = append(out, WindowRow{
			Adaptive:       adaptive,
			MaxBatch:       maxBatch,
			MeanBatch:      mean,
			P99DelayMillis: metrics.Percentile(delays, 99),
			Windows:        len(batchSizes),
		})
	}
	return out, nil
}

// AlphaRow measures one delegation fraction.
type AlphaRow struct {
	Alpha        float64
	KMsgs        float64
	MaxMeanRatio float64
	MeanHops     float64
}

// AblationAlphaSweep sweeps the delegation fraction α.
func AblationAlphaSweep(s Scale) ([]AlphaRow, error) {
	s.fill()
	alphas := []float64{0.25, 0.5, 0.75, 1.0}
	out := make([]AlphaRow, 0, len(alphas))
	for _, alpha := range alphas {
		run, err := Load(core.NetworkConfig{
			Nodes:  s.Nodes,
			Seed:   s.Seed,
			Scheme: core.Scheme1,
			Peer: core.Config{
				Mode:                core.GroupIndexing,
				DelegationThreshold: 64,
				DelegationAlpha:     alpha,
			},
		}, sectionV(s.MaxVolume, false))
		if err != nil {
			return nil, err
		}
		nw, res := run.Net, run.Work

		var hops metrics.Summary
		rng := rand.New(rand.NewSource(s.Seed + 31))
		for q := 0; q < s.Queries; q++ {
			obj := res.Objects[rng.Intn(len(res.Objects))]
			r, err := nw.Peers()[rng.Intn(s.Nodes)].FullTrace(obj)
			if err != nil {
				return nil, fmt.Errorf("alpha=%.2f query: %w", alpha, err)
			}
			hops.Add(float64(r.Hops))
		}
		out = append(out, AlphaRow{
			Alpha:        alpha,
			KMsgs:        run.KMsgs(),
			MaxMeanRatio: metrics.MaxMeanRatio(nw.IndexLoads()),
			MeanHops:     hops.Mean(),
		})
	}
	return out, nil
}

// CacheRow compares gateway-address caching on/off.
type CacheRow struct {
	Cache bool
	KMsgs float64
}

// AblationGatewayCache quantifies the DHT lookups saved by caching
// prefix→gateway resolutions ("the address of the parent and children
// can be cached to save the cost of DHT lookup").
func AblationGatewayCache(s Scale) ([]CacheRow, error) {
	s.fill()
	out := make([]CacheRow, 0, 2)
	for _, cache := range []bool{false, true} {
		run, err := Load(core.NetworkConfig{
			Nodes: s.Nodes,
			Seed:  s.Seed,
			Peer:  core.Config{Mode: core.GroupIndexing, NoGatewayCache: !cache},
		}, sectionV(s.MaxVolume, false))
		if err != nil {
			return nil, err
		}
		out = append(out, CacheRow{Cache: cache, KMsgs: run.KMsgs()})
	}
	return out, nil
}

// IntermediateRow compares iterative gateway queries with recursive
// routed queries that short-circuit at intermediate nodes (Section
// IV-C2).
type IntermediateRow struct {
	Mode             string
	MeanHops         float64
	IntermediateRate float64 // fraction of routed queries answered mid-route
}

// ExpIntermediate measures the intermediate-node optimization.
func ExpIntermediate(s Scale) ([]IntermediateRow, error) {
	s.fill()
	run, err := Load(core.NetworkConfig{Nodes: s.Nodes, Seed: s.Seed}, sectionV(s.MaxVolume, false))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Seed + 41))
	var iter, routed metrics.Summary
	interHits := 0
	for q := 0; q < s.Queries; q++ {
		obj := run.Work.Movers[rng.Intn(len(run.Work.Movers))]
		peer := run.Net.Peers()[rng.Intn(s.Nodes)]
		ri, err := peer.FullTrace(obj)
		if err != nil {
			return nil, err
		}
		iter.Add(float64(ri.Hops))
		rr, err := peer.TraceRouted(obj)
		if err != nil {
			return nil, err
		}
		routed.Add(float64(rr.Hops))
		if rr.Intermediate {
			interHits++
		}
	}
	return []IntermediateRow{
		{Mode: "iterative gateway", MeanHops: iter.Mean()},
		{Mode: "routed + short-circuit", MeanHops: routed.Mean(),
			IntermediateRate: float64(interHits) / float64(s.Queries)},
	}, nil
}

// OverlayRow compares the traceability system over different DHTs.
type OverlayRow struct {
	Overlay  string
	KMsgs    float64
	MeanHops float64
	P2PMs    float64
}

// ExpOverlayComparison runs the identical workload and query mix over
// Chord and Kademlia — the substantiation of the paper's claim that the
// approach is generic over DHT overlays, and a measurement of what the
// overlay choice costs.
func ExpOverlayComparison(s Scale) ([]OverlayRow, error) {
	s.fill()
	out := make([]OverlayRow, 0, 2)
	for _, kind := range []core.OverlayKind{core.ChordOverlay, core.KademliaOverlay} {
		run, err := Load(core.NetworkConfig{Nodes: s.Nodes, Seed: s.Seed, Overlay: kind}, sectionV(s.MaxVolume, true))
		if err != nil {
			return nil, err
		}
		nw, res := run.Net, run.Work

		rng := rand.New(rand.NewSource(s.Seed + 51))
		var hops metrics.Summary
		for q := 0; q < s.Queries; q++ {
			obj := res.Movers[rng.Intn(len(res.Movers))]
			r, err := nw.Peers()[rng.Intn(s.Nodes)].FullTrace(obj)
			if err != nil {
				return nil, fmt.Errorf("%s query: %w", kind, err)
			}
			hops.Add(float64(r.Hops))
		}
		out = append(out, OverlayRow{
			Overlay:  string(kind),
			KMsgs:    run.KMsgs(),
			MeanHops: hops.Mean(),
			P2PMs:    hops.Mean() * float64(nw.HopLatency) / float64(time.Millisecond),
		})
	}
	return out, nil
}
