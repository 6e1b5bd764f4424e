package experiments

import "peertrack/internal/core"

// Scale.XL: the tier beyond the paper's 512-node setup. The paper's
// evaluation stops where OverSim stops; the compact stores (interned
// prefix keys, slab index buckets, inline IOP slots, run-length finger
// tables) exist so one machine can push the same protocol to 50k–100k
// nodes and millions of tracked objects. -fig xl extends the Fig. 6–8
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

// xlSweep is the XL tier: the Fig. 7a cell at each network size, read
// for its indexing cost, index size and trace hops (no warehouse).
func xlSweep(s Scale, at func(Cell, reads) Result, f *Figures) {
	f.XL = nil
	for _, n := range s.NetworkSizes {
		r := at(s.cell(n, s.MaxVolume, true, core.GroupIndexing, 0), readTraces)
		f.XL = append(f.XL, XLRow{Nodes: n, ObjectsPerNode: s.MaxVolume, Objects: r.Objects, Observations: r.Observations,
			IndexKMsgs: r.KMsgs(), IndexedEntries: r.IndexedEntries, MeanHops: r.Query.MeanHops})
	}
}
