// Package experiments reproduces every figure of the paper's
// evaluation (Section V): indexing scalability on data volume and
// network size (Fig. 6a/6b), query processing time versus the
// centralized baseline (Fig. 7a/7b), and the effect of the prefix
// length schemes on load balance and indexing cost (Fig. 8a/8b) —
// plus the ablations DESIGN.md calls out.
//
// Every experiment is a pure function from a Scale (how big to run) to
// typed rows — the figures by way of RunFigures, which measures each
// simulation cell they share once — so the same code backs the
// peertrack-bench command, the root benchmarks and the tests.
// Scale.Full matches the paper exactly (512 nodes, 5 000 objects/node);
// the default scale keeps laptop runtimes in seconds while preserving
// every trend.
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
// Every figure cell and ablation loads this way.
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

// A Cell is one simulation the figures read: a Section V workload of
// PerNode objects a node, moving in groups or alone, on a network of
// Nodes peers under one indexing mode and prefix-length scheme. Cells
// compare as NetworkConfig fills them (a zero Scheme is scheme 2), so a
// figure list that names one cell several times measures it once.
type Cell struct {
	Nodes, PerNode int
	Grouped        bool
	Mode           core.Mode
	Scheme         core.Scheme
	// NoCache turns off the prefix→gateway address cache.
	NoCache bool
	// Replicas is the number of gateway copies beyond the primary.
	Replicas int
	Seed     int64
}

func (c Cell) fill() Cell {
	if c.Scheme < core.Scheme1 || c.Scheme > core.Scheme3 {
		c.Scheme = core.Scheme2 // NetworkConfig's default
	}
	return c
}

// Result is everything a figure reads of a measured cell.
type Result struct {
	Lp, Objects, Movers, Observations int
	// IndexedEntries is the number of gateway index records.
	IndexedEntries int
	// Indexing is the workload's transport traffic and ByType its round
	// trips by request type, both read before any query.
	Indexing transport.Snapshot
	ByType   map[string]uint64
	// Deciles samples the index-load curve (nodes sorted by descending
	// load) at every tenth of the nodes: {node fraction, load fraction}.
	Deciles                          [10][2]float64
	Gini, MaxMeanRatio, FractionIdle float64
	// Query is the Fig. 7 row: zero unless Measure was asked for
	// queries, its centralized column zero unless for the warehouse too.
	Query Fig7Row
}

// KMsgs is the indexing cost in thousands of messages.
func (r Result) KMsgs() float64 { return float64(r.Indexing.Messages) / 1000 }

// measureHook, set only by tests, sees every cell Measure loads.
var measureHook func(Cell)

// Measure loads c without the ground-truth oracle, which no figure
// reads, and returns what any figure reads of it. With queries > 0 it
// also asks that many "Where has object oi been?" trace queries of the
// P2P network and, with warehouse, of a centralized warehouse holding
// the same observations. The network is dropped before Measure returns.
func Measure(c Cell, queries int, warehouse bool) (Result, error) {
	c = c.fill()
	if measureHook != nil {
		measureHook(c)
	}
	run, err := Load(core.NetworkConfig{
		Nodes:    c.Nodes,
		Seed:     c.Seed,
		Scheme:   c.Scheme,
		Peer:     core.Config{Mode: c.Mode, NoGatewayCache: c.NoCache, ReplicationFactor: c.Replicas + 1},
		NoOracle: true,
	}, sectionV(c.PerNode, c.Grouped))
	if err != nil {
		return Result{}, err
	}
	nw, work := run.Net, run.Work
	loads := nw.IndexLoads()
	r := Result{
		Lp:           nw.Peers()[0].Prefixes().Lp(),
		Objects:      len(work.Objects),
		Movers:       len(work.Movers),
		Observations: len(work.Observations),
		Indexing:     run.Indexing,
		ByType:       nw.Stats().ByType(),
		Gini:         metrics.Gini(loads),
		MaxMeanRatio: metrics.MaxMeanRatio(loads),
		FractionIdle: metrics.FractionIdle(loads),
	}
	for _, p := range nw.Peers() {
		r.IndexedEntries += p.IndexedEntries()
	}
	nf, lf := metrics.LoadCurve(loads)
	for d := range r.Deciles {
		idx := max(int(math.Ceil(float64(d+1)/10*float64(len(nf))))-1, 0)
		r.Deciles[d] = [2]float64{nf[idx], lf[idx]}
	}
	if queries == 0 {
		return r, nil
	}
	var wh *centralized.Warehouse // identical observations, centralized
	if warehouse {
		wh = centralized.New(work.Observations)
	}
	pool := work.Movers // trace queries target objects with real trajectories
	if len(pool) == 0 {
		pool = work.Objects
	}
	rng := rand.New(rand.NewSource(c.Seed + 13))
	var p2p, central, hops metrics.Summary
	for q := 0; q < queries; q++ {
		obj := pool[rng.Intn(len(pool))]
		res, err := nw.Peers()[rng.Intn(c.Nodes)].FullTrace(obj)
		if err != nil {
			return Result{}, fmt.Errorf("query %s: %w", obj, err)
		}
		p2p.Add(float64(nw.QueryTime(res.Hops)) / float64(time.Millisecond))
		hops.Add(float64(res.Hops))
		if wh != nil {
			_, cost := wh.FullTrace(obj)
			central.Add(float64(cost) / float64(time.Millisecond))
		}
	}
	r.Query = Fig7Row{Nodes: c.Nodes, ObjectsPerNode: c.PerNode, P2PMillis: p2p.Mean(), CentralMillis: central.Mean(), MeanHops: hops.Mean()}
	return r, nil
}

// Figures holds the rows of the figures a RunFigures call was asked for.
type Figures struct {
	Fig6a        []Fig6aRow
	Fig6b        []Fig6bRow
	Fig7a, Fig7b []Fig7Row
	Fig8a        []Fig8aRow
	Fig8aSummary []Fig8aSummary
	Fig8b        []Fig8bRow
	Attribution  []AttributionRow
	Cache        []CacheRow
	XL           []XLRow
}

// What a figure reads of a cell beyond its indexing run.
type reads int

const (
	readIndexing reads = iota
	readTraces         // Scale.Queries trace queries of the P2P network
	readCentral        // the same queries of a centralized warehouse too
)

// A figure is a projection of measured cells: at(c, r) is cell c's
// Result, measured for what r reads. RunFigures calls each figure
// twice, first with an at that only notes the cells asked for.
type figure func(s Scale, at func(Cell, reads) Result, f *Figures)

var figures = map[string]figure{
	"6a": fig6a, "6b": fig6b, "7a": fig7a, "7b": fig7b, "8a": fig8a, "8b": fig8b,
	"attribution": attribution, "cache": cacheAblation, "xl": xlSweep,
}

// RunFigures renders every figure among names that is read off cells
// (6a–8b, attribution, cache and xl; others are skipped). It
// collects their cells, measures each distinct one once across
// Scale.Workers — only results, never networks, outlive a cell — and
// projects each figure from the results, so a figure's rows are the same
// whatever else is in the list.
func RunFigures(s Scale, names ...string) (Figures, error) {
	s.fill()
	index := map[Cell]int{}
	var cells []Cell
	var need []reads
	var discard Figures
	for _, name := range names {
		if fig := figures[name]; fig != nil {
			fig(s, func(c Cell, r reads) Result {
				c = c.fill()
				i, ok := index[c]
				if !ok {
					i = len(cells)
					index[c] = i
					cells, need = append(cells, c), append(need, readIndexing)
				}
				need[i] = max(need[i], r)
				return Result{}
			}, &discard)
		}
	}
	results := make([]Result, len(cells))
	err := runTasks(s.workers(), len(cells), func(i int) (err error) {
		q := 0
		if need[i] >= readTraces {
			q = s.Queries
		}
		if results[i], err = Measure(cells[i], q, need[i] == readCentral); err != nil {
			return fmt.Errorf("cell %+v: %w", cells[i], err)
		}
		return nil
	})
	if err != nil {
		return Figures{}, err
	}
	var f Figures
	for _, name := range names {
		if fig := figures[name]; fig != nil {
			fig(s, func(c Cell, _ reads) Result { return results[index[c.fill()]] }, &f)
		}
	}
	return f, nil
}

// cell is the Section V cell of the figures at s's seed.
func (s Scale) cell(nodes, perNode int, grouped bool, mode core.Mode, scheme core.Scheme) Cell {
	return Cell{Nodes: nodes, PerNode: perNode, Grouped: grouped, Mode: mode, Scheme: scheme, Seed: s.Seed}
}

// volume is the i-th point (from 1) of the volume axis.
func (s Scale) volume(i int) int { return s.MaxVolume * i / s.VolumeSteps }

// Fig6aRow is one point of Fig. 6a: indexing cost vs data volume at a
// fixed network size, individual vs group indexing.
type Fig6aRow struct {
	ObjectsPerNode  int
	IndividualKMsgs float64
	GroupKMsgs      float64
}

func fig6a(s Scale, at func(Cell, reads) Result, f *Figures) {
	f.Fig6a = nil
	for i := 1; i <= s.VolumeSteps; i++ {
		vol := s.volume(i)
		f.Fig6a = append(f.Fig6a, Fig6aRow{
			ObjectsPerNode:  vol,
			IndividualKMsgs: at(s.cell(s.Nodes, vol, true, core.IndividualIndexing, 0), readIndexing).KMsgs(),
			GroupKMsgs:      at(s.cell(s.Nodes, vol, true, core.GroupIndexing, 0), readIndexing).KMsgs(),
		})
	}
}

// Fig6bRow is one point of Fig. 6b: indexing cost vs network size at a
// fixed per-node volume, three series.
type Fig6bRow struct {
	Nodes            int
	IndividualKMsgs  float64
	GroupMovedKMsgs  float64 // group indexing, objects move in groups
	GroupSingleKMsgs float64 // group indexing, objects move individually
}

func fig6b(s Scale, at func(Cell, reads) Result, f *Figures) {
	f.Fig6b = nil
	for _, n := range s.NetworkSizes {
		f.Fig6b = append(f.Fig6b, Fig6bRow{
			Nodes:            n,
			IndividualKMsgs:  at(s.cell(n, s.MaxVolume, true, core.IndividualIndexing, 0), readIndexing).KMsgs(),
			GroupMovedKMsgs:  at(s.cell(n, s.MaxVolume, true, core.GroupIndexing, 0), readIndexing).KMsgs(),
			GroupSingleKMsgs: at(s.cell(n, s.MaxVolume, false, core.GroupIndexing, 0), readIndexing).KMsgs(),
		})
	}
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

func fig7a(s Scale, at func(Cell, reads) Result, f *Figures) {
	f.Fig7a = nil
	for _, n := range s.NetworkSizes {
		f.Fig7a = append(f.Fig7a, at(s.cell(n, s.MaxVolume, true, core.GroupIndexing, 0), readCentral).Query)
	}
}

func fig7b(s Scale, at func(Cell, reads) Result, f *Figures) {
	f.Fig7b = nil
	for i := 1; i <= s.VolumeSteps; i++ {
		f.Fig7b = append(f.Fig7b, at(s.cell(s.Nodes, s.volume(i), true, core.GroupIndexing, 0), readCentral).Query)
	}
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

var schemes = []core.Scheme{core.Scheme1, core.Scheme2, core.Scheme3}

func fig8a(s Scale, at func(Cell, reads) Result, f *Figures) {
	f.Fig8a, f.Fig8aSummary = nil, nil
	for _, scheme := range schemes {
		r := at(s.cell(s.Nodes, s.MaxVolume, true, core.GroupIndexing, scheme), readIndexing)
		for _, d := range r.Deciles {
			f.Fig8a = append(f.Fig8a, Fig8aRow{Scheme: scheme, NodeFrac: d[0], LoadFrac: d[1]})
		}
		f.Fig8aSummary = append(f.Fig8aSummary, Fig8aSummary{
			Scheme: scheme, Gini: r.Gini, MaxMeanRatio: r.MaxMeanRatio, FractionIdle: r.FractionIdle,
		})
	}
}

// Fig8bRow is one point of Fig. 8b: indexing cost (log2 of messages)
// per scheme and network size.
type Fig8bRow struct {
	Nodes       int
	Scheme1Log2 float64
	Scheme2Log2 float64
	Scheme3Log2 float64
}

func fig8b(s Scale, at func(Cell, reads) Result, f *Figures) {
	f.Fig8b = nil
	for _, n := range s.NetworkSizes {
		var v [3]float64
		for i, scheme := range schemes {
			v[i] = math.Log2(at(s.cell(n, s.MaxVolume, true, core.GroupIndexing, scheme), readIndexing).KMsgs() * 1000)
		}
		f.Fig8b = append(f.Fig8b, Fig8bRow{Nodes: n, Scheme1Log2: v[0], Scheme2Log2: v[1], Scheme3Log2: v[2]})
	}
}

// AttributionRow splits one Fig. 6a point's group-indexing saving
// between grouping and the prefix→gateway cache.
type AttributionRow struct {
	ObjectsPerNode    int
	IndividualKMsgs   float64
	GroupKMsgs        float64
	GroupNoCacheKMsgs float64
	// ObsPerGroupMsg is observations per groupArriveReq round trip: how
	// many arrivals one group indexing message carries.
	ObsPerGroupMsg float64
	// LookupsSavedK is the chord.closestPrecedingReq round trips the
	// cache saves (cache off minus cache on), in thousands.
	LookupsSavedK float64
}

func attribution(s Scale, at func(Cell, reads) Result, f *Figures) {
	f.Attribution = nil
	for i := 1; i <= s.VolumeSteps; i++ {
		vol := s.volume(i)
		grp := at(s.cell(s.Nodes, vol, true, core.GroupIndexing, 0), readIndexing)
		off := s.cell(s.Nodes, vol, true, core.GroupIndexing, 0)
		off.NoCache = true
		noCache := at(off, readIndexing)
		const lookup = "chord.closestPrecedingReq"
		f.Attribution = append(f.Attribution, AttributionRow{
			ObjectsPerNode:    vol,
			IndividualKMsgs:   at(s.cell(s.Nodes, vol, true, core.IndividualIndexing, 0), readIndexing).KMsgs(),
			GroupKMsgs:        grp.KMsgs(),
			GroupNoCacheKMsgs: noCache.KMsgs(),
			ObsPerGroupMsg:    float64(grp.Observations) / float64(grp.ByType["core.groupArriveReq"]),
			LookupsSavedK:     (float64(noCache.ByType[lookup]) - float64(grp.ByType[lookup])) / 1000,
		})
	}
}
