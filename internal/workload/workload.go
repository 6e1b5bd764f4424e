// Package workload generates the synthetic traceability workloads of
// the paper's evaluation (Section V) and realistic supply-chain flows
// for the examples.
//
// The evaluation workload is specified precisely in V-A: "generated a
// specific number of objects at each node ... To simulate the movement
// of objects, 10% of the local objects at each node were moved along a
// trace of 10 nodes", with a variant where objects move in groups
// versus individually (Fig. 6b).
package workload

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"peertrack/internal/epc"
	"peertrack/internal/moods"
)

// PaperSpec parameterizes the Section V workload.
type PaperSpec struct {
	// Nodes are the traceable-network locations.
	Nodes []moods.NodeName
	// ObjectsPerNode is the number of objects generated at each node
	// (the paper sweeps 500..5000).
	ObjectsPerNode int
	// MoveFraction is the fraction of each node's local objects that
	// move (paper: 0.10).
	MoveFraction float64
	// TraceLen is the number of nodes each moving object visits,
	// including its origin (paper: 10).
	TraceLen int
	// Grouped makes all movers from one origin travel together along
	// one shared route with burst-aligned timing, so they fall into the
	// same capture windows; otherwise each object gets its own route
	// and independent timing.
	Grouped bool
	// Seed drives all randomness.
	Seed int64
	// Spread is the window over which initial placements occur.
	// Default 10s.
	Spread time.Duration
	// HopGap is the travel time between consecutive nodes. Default 1m.
	HopGap time.Duration
	// RealEPC ids: when true, objects carry SGTIN-96 URNs; otherwise
	// compact synthetic ids (faster for big sweeps).
	RealEPC bool
}

func (s *PaperSpec) fill() {
	if s.ObjectsPerNode <= 0 {
		s.ObjectsPerNode = 100
	}
	if s.MoveFraction < 0 {
		s.MoveFraction = 0
	}
	if s.MoveFraction > 1 {
		s.MoveFraction = 1
	}
	if s.TraceLen <= 0 {
		s.TraceLen = 10
	}
	if s.Spread <= 0 {
		s.Spread = 10 * time.Second
	}
	if s.HopGap <= 0 {
		s.HopGap = time.Minute
	}
}

// Result is a generated workload.
type Result struct {
	// Observations, sorted by capture time.
	Observations []moods.Observation
	// Objects lists every generated object id.
	Objects []moods.ObjectID
	// Movers lists the objects that travel (10% of each node's
	// population under the paper's settings).
	Movers []moods.ObjectID
	// Horizon is the time of the last observation.
	Horizon time.Duration
}

// Generate produces the workload.
func (s PaperSpec) Generate() (Result, error) {
	s.fill()
	if len(s.Nodes) == 0 {
		return Result{}, fmt.Errorf("workload: no nodes")
	}
	if s.TraceLen > len(s.Nodes) {
		return Result{}, fmt.Errorf("workload: trace length %d exceeds node count %d", s.TraceLen, len(s.Nodes))
	}
	rng := rand.New(rand.NewSource(s.Seed))
	var gen *epc.Generator
	if s.RealEPC {
		gen = epc.NewGenerator(s.Seed, 16, 256)
	}

	// Every node contributes the same counts, so the three slices are
	// sized once: a placement per object plus TraceLen-1 hops per mover.
	nMove := int(s.MoveFraction * float64(s.ObjectsPerNode))
	res := Result{
		Observations: make([]moods.Observation, 0, len(s.Nodes)*(s.ObjectsPerNode+nMove*(s.TraceLen-1))),
		Objects:      make([]moods.ObjectID, 0, len(s.Nodes)*s.ObjectsPerNode),
		Movers:       make([]moods.ObjectID, 0, len(s.Nodes)*nMove),
	}
	serial := 0
	newObject := func() moods.ObjectID {
		serial++
		if gen != nil {
			return moods.ObjectID(gen.NextURN())
		}
		return moods.ObjectID(fmt.Sprintf("obj-%08d", serial))
	}

	for ni, node := range s.Nodes {
		// A shared route and departure schedule for grouped movement.
		var groupRoute []moods.NodeName
		var groupStart time.Duration
		if s.Grouped && nMove > 0 {
			groupRoute = s.route(rng, ni)
			groupStart = s.Spread + time.Duration(rng.Int63n(int64(s.HopGap)))
		}
		for oi := 0; oi < s.ObjectsPerNode; oi++ {
			obj := newObject()
			res.Objects = append(res.Objects, obj)
			placed := time.Duration(rng.Int63n(int64(s.Spread)))
			res.Observations = append(res.Observations, moods.Observation{
				Object: obj, Node: node, At: placed,
			})
			if oi >= nMove {
				continue
			}
			res.Movers = append(res.Movers, obj)
			route := groupRoute
			start := groupStart
			if !s.Grouped {
				route = s.route(rng, ni)
				// Independent departures spread an order of magnitude
				// wider than a capture window, so co-located objects
				// land in different windows.
				start = s.Spread + time.Duration(rng.Int63n(int64(s.HopGap)*10))
			}
			at := start
			for _, hop := range route {
				jitter := time.Duration(rng.Int63n(int64(100 * time.Millisecond)))
				res.Observations = append(res.Observations, moods.Observation{
					Object: obj, Node: hop, At: at + jitter,
				})
				at += s.HopGap
			}
		}
	}

	// Stable: observations captured at the same instant keep generation
	// order, which is the order the simulation replays them in.
	slices.SortStableFunc(res.Observations, func(a, b moods.Observation) int {
		return cmp.Compare(a.At, b.At)
	})
	if n := len(res.Observations); n > 0 {
		res.Horizon = res.Observations[n-1].At
	}
	return res, nil
}

// route draws TraceLen-1 further distinct hops starting after origin.
func (s PaperSpec) route(rng *rand.Rand, origin int) []moods.NodeName {
	hops := make([]moods.NodeName, 0, s.TraceLen-1)
	used := map[int]bool{origin: true}
	for len(hops) < s.TraceLen-1 {
		k := rng.Intn(len(s.Nodes))
		if used[k] {
			continue
		}
		used[k] = true
		hops = append(hops, s.Nodes[k])
	}
	return hops
}
