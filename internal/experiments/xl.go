package experiments

import (
	"fmt"
	"math/rand"

	"peertrack/internal/core"
	"peertrack/internal/metrics"
)

// Scale.XL: the tier beyond the paper's 512-node setup. The paper's
// evaluation stops where OverSim stops; the compact stores (interned
// prefix keys, slab index buckets, inline IOP slots, run-length finger
// tables) exist so one machine can push the same protocol to 50k–100k
// nodes and millions of tracked objects. XLSweep extends the Fig. 6–8
// axes into that regime with deterministic rows; wall-clock and memory
// are measured separately by peertrack-bench (they are machine facts,
// not protocol facts, and would break row byte-identity).

// XL is the extreme-scale preset: 50 000 nodes, 2 million objects at
// the top of the sweep. The ground-truth oracle is disabled — at this
// scale it would hold a second copy of every observation.
func XL() Scale {
	return Scale{
		Nodes:        50000,
		NetworkSizes: []int{10000, 20000, 50000},
		MaxVolume:    40,
		VolumeSteps:  2,
		Queries:      50,
		Seed:         1,
	}
}

// XLRow is one point of the XL sweep. Every field is a protocol fact,
// reproducible byte-for-byte from the Scale alone at any worker count.
type XLRow struct {
	Nodes          int
	ObjectsPerNode int
	// Objects is the number of distinct tracked objects.
	Objects int
	// Observations is the number of capture events played.
	Observations int
	// IndexKMsgs is the indexing cost in thousands of messages (the
	// Fig. 6 metric, continued past the paper's axis).
	IndexKMsgs float64
	// IndexedEntries is the total number of gateway index records.
	IndexedEntries int
	// MeanHops is the mean trace-query hop count over Scale.Queries
	// queries (the Fig. 7 metric; multiply by HopLatency for time).
	MeanHops float64
}

// xlPoint loads one (nodes, volume) cell and measures it.
func xlPoint(nodes, perNode, queries int, seed int64) (XLRow, error) {
	// The oracle is off: throughput sweeps never verify traces against
	// ground truth, and its copy of every observation dominates memory at
	// XL scale.
	run, err := Load(core.NetworkConfig{Nodes: nodes, Seed: seed, NoOracle: true}, sectionV(perNode, true))
	if err != nil {
		return XLRow{}, err
	}
	indexed := 0
	for _, p := range run.Net.Peers() {
		indexed += p.IndexedEntries()
	}
	rng := rand.New(rand.NewSource(seed + 13))
	var hops metrics.Summary
	for q := 0; q < queries; q++ {
		obj := run.Work.Movers[rng.Intn(len(run.Work.Movers))]
		peer := run.Net.Peers()[rng.Intn(nodes)]
		res, err := peer.FullTrace(obj)
		if err != nil {
			return XLRow{}, fmt.Errorf("xl query %s: %w", obj, err)
		}
		hops.Add(float64(res.Hops))
	}
	return XLRow{
		Nodes:          nodes,
		ObjectsPerNode: perNode,
		Objects:        nodes * perNode,
		Observations:   len(run.Work.Observations),
		IndexKMsgs:     run.KMsgs(),
		IndexedEntries: indexed,
		MeanHops:       hops.Mean(),
	}, nil
}

// XLSweep runs the XL tier: one cell per network size at MaxVolume
// objects per node, fanned out across Scale.Workers. Rows are
// byte-identical at any worker count (see runner.go).
func XLSweep(s Scale) ([]XLRow, error) {
	s.fill()
	rows := make([]XLRow, len(s.NetworkSizes))
	err := runTasks(s.workers(), len(s.NetworkSizes), func(i int) error {
		n := s.NetworkSizes[i]
		row, err := xlPoint(n, s.MaxVolume, s.Queries, s.Seed)
		if err != nil {
			return fmt.Errorf("xl n=%d: %w", n, err)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
