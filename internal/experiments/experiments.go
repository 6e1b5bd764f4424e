// Package experiments reproduces every figure of the paper's
// evaluation (Section V): indexing scalability on data volume and
// network size (Fig. 6a/6b), query processing time versus the
// centralized baseline (Fig. 7a/7b), and the effect of the prefix
// length schemes on load balance and indexing cost (Fig. 8a/8b) —
// plus the ablations DESIGN.md calls out.
//
// Every experiment is a pure function from a Scale (how big to run) to
// typed rows, so the same code backs the peertrack-bench command, the
// root benchmark suite, and the integration tests. Scale.Full matches
// the paper exactly (512 nodes, 5 000 objects/node); the default scale
// keeps laptop runtimes in seconds while preserving every trend.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"peertrack/internal/centralized"
	"peertrack/internal/core"
	"peertrack/internal/metrics"
	"peertrack/internal/moods"
	"peertrack/internal/transport"
	"peertrack/internal/workload"
)

// Scale sizes an experiment run.
type Scale struct {
	// Nodes is the network size for volume sweeps (paper: 512).
	Nodes int
	// NetworkSizes is the node-count axis for size sweeps
	// (paper: 64, 128, 256, 512).
	NetworkSizes []int
	// MaxVolume is the largest objects-per-node value (paper: 5000).
	MaxVolume int
	// VolumeSteps is the number of volume points (paper: 10).
	VolumeSteps int
	// Queries is the number of trace queries per measurement
	// (paper: 100).
	Queries int
	// Seed drives workload and query sampling.
	Seed int64
	// Workers bounds how many sweep points run concurrently. 0 means
	// GOMAXPROCS; 1 forces the sequential runner. Every worker count
	// produces byte-identical rows: points are independent simulations
	// seeded from Seed alone (see runner.go).
	Workers int
}

// Default is a laptop-scale configuration (seconds per figure).
func Default() Scale {
	return Scale{
		Nodes:        128,
		NetworkSizes: []int{16, 32, 64, 128},
		MaxVolume:    1000,
		VolumeSteps:  5,
		Queries:      100,
		Seed:         1,
	}
}

// Full matches the paper's experimental setup.
func Full() Scale {
	return Scale{
		Nodes:        512,
		NetworkSizes: []int{64, 128, 256, 512},
		MaxVolume:    5000,
		VolumeSteps:  10,
		Queries:      100,
		Seed:         1,
	}
}

// Tiny is for unit tests and -short benchmarks.
func Tiny() Scale {
	return Scale{
		Nodes:        32,
		NetworkSizes: []int{8, 16, 32},
		MaxVolume:    200,
		VolumeSteps:  2,
		Queries:      25,
		Seed:         1,
	}
}

func (s *Scale) fill() {
	d := Default()
	if s.Nodes <= 0 {
		s.Nodes = d.Nodes
	}
	if len(s.NetworkSizes) == 0 {
		s.NetworkSizes = d.NetworkSizes
	}
	if s.MaxVolume <= 0 {
		s.MaxVolume = d.MaxVolume
	}
	if s.VolumeSteps <= 0 {
		s.VolumeSteps = d.VolumeSteps
	}
	if s.Queries <= 0 {
		s.Queries = d.Queries
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
}

// Loaded is a simulated network after a Section V workload has run on it.
type Loaded struct {
	Net  *core.Network
	Work workload.Result
	// Indexing is the transport traffic of the run: a built network has
	// sent nothing, so this is its whole indexing cost.
	Indexing transport.Snapshot
}

// KMsgs is the indexing cost in thousands of messages.
func (l Loaded) KMsgs() float64 { return float64(l.Indexing.Messages) / 1000 }

// sectionV is the paper's workload shape: a tenth of the objects move,
// ten stops each.
func sectionV(perNode int, grouped bool) workload.PaperSpec {
	return workload.PaperSpec{ObjectsPerNode: perNode, MoveFraction: 0.10, TraceLen: 10, Grouped: grouped}
}

// Load builds the network cfg describes and plays a workload through it
// to quiescence: spec generated over the network's nodes (its Nodes and
// Seed are filled in, its TraceLen capped at the network size),
// scheduled in one batch, with capture windows under group indexing.
// Every figure, ablation, XL cell and peertrack-sim loads this way.
func Load(cfg core.NetworkConfig, spec workload.PaperSpec) (Loaded, error) {
	nw, err := core.BuildNetwork(cfg)
	if err != nil {
		return Loaded{}, err
	}
	spec.Nodes = make([]moods.NodeName, nw.Size())
	for i, p := range nw.Peers() {
		spec.Nodes[i] = p.Name()
	}
	spec.TraceLen = min(spec.TraceLen, nw.Size())
	spec.Seed = cfg.Seed + 7
	res, err := spec.Generate()
	if err != nil {
		return Loaded{}, err
	}
	if err := nw.ScheduleAll(res.Observations); err != nil {
		return Loaded{}, err
	}
	if cfg.Peer.Mode == core.GroupIndexing {
		nw.StartWindows(res.Horizon + 2*time.Second)
	}
	nw.Run()
	return Loaded{Net: nw, Work: res, Indexing: nw.Stats().Snapshot()}, nil
}

// Fig6aRow is one point of Fig. 6a: indexing cost vs data volume at a
// fixed network size, individual vs group indexing.
type Fig6aRow struct {
	ObjectsPerNode  int
	IndividualKMsgs float64
	GroupKMsgs      float64
}

// Fig6a regenerates Fig. 6a. The volume points (and the two indexing
// modes within each point) are independent simulations, fanned out
// across Scale.Workers.
func Fig6a(s Scale) ([]Fig6aRow, error) {
	s.fill()
	rows := make([]Fig6aRow, s.VolumeSteps)
	for i := range rows {
		rows[i].ObjectsPerNode = s.MaxVolume * (i + 1) / s.VolumeSteps
	}
	// Two tasks per volume point, writing disjoint fields of the row.
	err := runTasks(s.workers(), 2*s.VolumeSteps, func(t int) error {
		row := &rows[t/2]
		vol := row.ObjectsPerNode
		if t%2 == 0 {
			ind, err := Load(core.NetworkConfig{Nodes: s.Nodes, Seed: s.Seed, Peer: core.Config{Mode: core.IndividualIndexing}}, sectionV(vol, true))
			if err != nil {
				return fmt.Errorf("fig6a individual vol=%d: %w", vol, err)
			}
			row.IndividualKMsgs = ind.KMsgs()
		} else {
			grp, err := Load(core.NetworkConfig{Nodes: s.Nodes, Seed: s.Seed}, sectionV(vol, true))
			if err != nil {
				return fmt.Errorf("fig6a group vol=%d: %w", vol, err)
			}
			row.GroupKMsgs = grp.KMsgs()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Fig6bRow is one point of Fig. 6b: indexing cost vs network size at a
// fixed per-node volume, three series.
type Fig6bRow struct {
	Nodes            int
	IndividualKMsgs  float64
	GroupMovedKMsgs  float64 // group indexing, objects move in groups
	GroupSingleKMsgs float64 // group indexing, objects move individually
}

// Fig6b regenerates Fig. 6b. Each (network size, series) cell is an
// independent simulation, fanned out across Scale.Workers.
func Fig6b(s Scale) ([]Fig6bRow, error) {
	s.fill()
	rows := make([]Fig6bRow, len(s.NetworkSizes))
	for i, n := range s.NetworkSizes {
		rows[i].Nodes = n
	}
	// Three tasks per size, one per series, writing disjoint fields.
	err := runTasks(s.workers(), 3*len(s.NetworkSizes), func(t int) error {
		row := &rows[t/3]
		n := row.Nodes
		switch t % 3 {
		case 0:
			ind, err := Load(core.NetworkConfig{Nodes: n, Seed: s.Seed, Peer: core.Config{Mode: core.IndividualIndexing}}, sectionV(s.MaxVolume, true))
			if err != nil {
				return fmt.Errorf("fig6b individual n=%d: %w", n, err)
			}
			row.IndividualKMsgs = ind.KMsgs()
		case 1:
			grpG, err := Load(core.NetworkConfig{Nodes: n, Seed: s.Seed}, sectionV(s.MaxVolume, true))
			if err != nil {
				return fmt.Errorf("fig6b grouped n=%d: %w", n, err)
			}
			row.GroupMovedKMsgs = grpG.KMsgs()
		case 2:
			grpI, err := Load(core.NetworkConfig{Nodes: n, Seed: s.Seed}, sectionV(s.MaxVolume, false))
			if err != nil {
				return fmt.Errorf("fig6b group-individual n=%d: %w", n, err)
			}
			row.GroupSingleKMsgs = grpI.KMsgs()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Fig7Row is one point of Fig. 7a/7b: mean trace-query processing time,
// P2P vs centralized.
type Fig7Row struct {
	Nodes          int
	ObjectsPerNode int
	P2PMillis      float64
	CentralMillis  float64
	MeanHops       float64
}

// queryPoint loads one (nodes, volume) cell and measures both systems
// on the paper's query "Where has object oi been?".
func queryPoint(nodes, perNode, queries int, seed int64) (Fig7Row, error) {
	run, err := Load(core.NetworkConfig{Nodes: nodes, Seed: seed}, sectionV(perNode, true))
	if err != nil {
		return Fig7Row{}, err
	}
	// Centralized: identical observations in the warehouse.
	wh := centralized.New()
	for _, obs := range run.Work.Observations {
		wh.Insert(obs)
	}

	rng := rand.New(rand.NewSource(seed + 13))
	var p2p, central, hops metrics.Summary
	for q := 0; q < queries; q++ {
		// Trace queries target objects with real trajectories (movers).
		obj := run.Work.Movers[rng.Intn(len(run.Work.Movers))]
		peer := run.Net.Peers()[rng.Intn(nodes)]
		res, err := peer.FullTrace(obj)
		if err != nil {
			return Fig7Row{}, fmt.Errorf("query %s: %w", obj, err)
		}
		p2p.Add(float64(run.Net.QueryTime(res.Hops)) / float64(time.Millisecond))
		hops.Add(float64(res.Hops))
		_, cost := wh.FullTrace(obj)
		central.Add(float64(cost) / float64(time.Millisecond))
	}
	return Fig7Row{
		Nodes:          nodes,
		ObjectsPerNode: perNode,
		P2PMillis:      p2p.Mean(),
		CentralMillis:  central.Mean(),
		MeanHops:       hops.Mean(),
	}, nil
}

// Fig7a regenerates Fig. 7a: query time vs network size. Points are
// independent simulations, fanned out across Scale.Workers.
func Fig7a(s Scale) ([]Fig7Row, error) {
	s.fill()
	rows := make([]Fig7Row, len(s.NetworkSizes))
	err := runTasks(s.workers(), len(s.NetworkSizes), func(i int) error {
		n := s.NetworkSizes[i]
		row, err := queryPoint(n, s.MaxVolume, s.Queries, s.Seed)
		if err != nil {
			return fmt.Errorf("fig7a n=%d: %w", n, err)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Fig7b regenerates Fig. 7b: query time vs data volume. Points are
// independent simulations, fanned out across Scale.Workers.
func Fig7b(s Scale) ([]Fig7Row, error) {
	s.fill()
	rows := make([]Fig7Row, s.VolumeSteps)
	err := runTasks(s.workers(), s.VolumeSteps, func(i int) error {
		vol := s.MaxVolume * (i + 1) / s.VolumeSteps
		row, err := queryPoint(s.Nodes, vol, s.Queries, s.Seed)
		if err != nil {
			return fmt.Errorf("fig7b vol=%d: %w", vol, err)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Fig8aRow is one load-curve point for one scheme: after sorting nodes
// by descending index load, the top NodeFrac of nodes hold LoadFrac of
// the records.
type Fig8aRow struct {
	Scheme   core.Scheme
	NodeFrac float64
	LoadFrac float64
}

// Fig8aSummary aggregates a scheme's balance quality.
type Fig8aSummary struct {
	Scheme       core.Scheme
	Gini         float64
	MaxMeanRatio float64
	FractionIdle float64
}

// Fig8a regenerates Fig. 8a: the load-balance curves of the three Lp
// schemes, sampled at deciles, plus summary statistics. The schemes are
// independent simulations, fanned out across Scale.Workers.
func Fig8a(s Scale) ([]Fig8aRow, []Fig8aSummary, error) {
	s.fill()
	schemes := []core.Scheme{core.Scheme1, core.Scheme2, core.Scheme3}
	rows := make([]Fig8aRow, 10*len(schemes))
	sums := make([]Fig8aSummary, len(schemes))
	err := runTasks(s.workers(), len(schemes), func(si int) error {
		scheme := schemes[si]
		run, err := Load(core.NetworkConfig{Nodes: s.Nodes, Seed: s.Seed, Scheme: scheme}, sectionV(s.MaxVolume, true))
		if err != nil {
			return fmt.Errorf("fig8a scheme %d: %w", scheme, err)
		}
		loads := run.Net.IndexLoads()
		nf, lf := metrics.LoadCurve(loads)
		// Sample at deciles.
		for d := 1; d <= 10; d++ {
			target := float64(d) / 10
			idx := int(math.Ceil(target*float64(len(nf)))) - 1
			if idx < 0 {
				idx = 0
			}
			rows[si*10+d-1] = Fig8aRow{Scheme: scheme, NodeFrac: nf[idx], LoadFrac: lf[idx]}
		}
		sums[si] = Fig8aSummary{
			Scheme:       scheme,
			Gini:         metrics.Gini(loads),
			MaxMeanRatio: metrics.MaxMeanRatio(loads),
			FractionIdle: metrics.FractionIdle(loads),
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return rows, sums, nil
}

// Fig8bRow is one point of Fig. 8b: indexing cost (log2 of messages)
// per scheme and network size.
type Fig8bRow struct {
	Nodes       int
	Scheme1Log2 float64
	Scheme2Log2 float64
	Scheme3Log2 float64
}

// Fig8b regenerates Fig. 8b. Each (network size, scheme) cell is an
// independent simulation, fanned out across Scale.Workers.
func Fig8b(s Scale) ([]Fig8bRow, error) {
	s.fill()
	schemes := []core.Scheme{core.Scheme1, core.Scheme2, core.Scheme3}
	rows := make([]Fig8bRow, len(s.NetworkSizes))
	for i, n := range s.NetworkSizes {
		rows[i].Nodes = n
	}
	// One task per (size, scheme) cell, writing disjoint fields.
	err := runTasks(s.workers(), len(schemes)*len(s.NetworkSizes), func(t int) error {
		row := &rows[t/3]
		scheme := schemes[t%3]
		run, err := Load(core.NetworkConfig{Nodes: row.Nodes, Seed: s.Seed, Scheme: scheme}, sectionV(s.MaxVolume, true))
		if err != nil {
			return fmt.Errorf("fig8b scheme %d n=%d: %w", scheme, row.Nodes, err)
		}
		v := math.Log2(run.KMsgs() * 1000)
		switch t % 3 {
		case 0:
			row.Scheme1Log2 = v
		case 1:
			row.Scheme2Log2 = v
		case 2:
			row.Scheme3Log2 = v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
