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
	"fmt"
	"math/rand"
	"strconv"
	"strings"
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

	// Every node contributes the same counts, so the three slices are
	// sized once: a placement per object plus TraceLen-1 hops per mover.
	nMove := int(s.MoveFraction * float64(s.ObjectsPerNode))
	res := Result{
		Observations: make([]moods.Observation, 0, len(s.Nodes)*(s.ObjectsPerNode+nMove*(s.TraceLen-1))),
		Objects:      make([]moods.ObjectID, 0, len(s.Nodes)*s.ObjectsPerNode),
		Movers:       make([]moods.ObjectID, 0, len(s.Nodes)*nMove),
	}
	var idBytes strings.Builder // every synthetic id, end to end
	newObject := func() moods.ObjectID { return syntheticID(&idBytes, len(res.Objects)+1) }
	if s.RealEPC {
		gen := epc.NewGenerator(s.Seed, 16, 256)
		newObject = func() moods.ObjectID { return moods.ObjectID(gen.NextURN()) }
	} else {
		idBytes.Grow(cap(res.Objects) * len("obj-00000000"))
	}
	used := make([]bool, len(s.Nodes)) // route's scratch

	for ni, node := range s.Nodes {
		// A shared route and departure schedule for grouped movement.
		var groupRoute []moods.NodeName
		var groupStart time.Duration
		if s.Grouped && nMove > 0 {
			groupRoute = s.route(rng, ni, used)
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
				route = s.route(rng, ni, used)
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

	// Observations captured at the same instant keep generation order,
	// which is the order the simulation replays them in.
	moods.SortByTime(res.Observations)
	if n := len(res.Observations); n > 0 {
		res.Horizon = res.Observations[n-1].At
	}
	return res, nil
}

// syntheticID is fmt.Sprintf("obj-%08d", k), cut from the end of sb: the
// ids of a workload share one allocation instead of taking one each.
func syntheticID(sb *strings.Builder, k int) moods.ObjectID {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(k), 10)
	start := sb.Len()
	sb.WriteString("obj-00000000"[:max(4, 12-len(d))])
	sb.Write(d)
	return moods.ObjectID(sb.String()[start:])
}

// route draws TraceLen-1 further distinct hops starting after origin;
// used is its scratch, one flag a node, reused from route to route.
func (s PaperSpec) route(rng *rand.Rand, origin int, used []bool) []moods.NodeName {
	hops := make([]moods.NodeName, 0, s.TraceLen-1)
	clear(used)
	used[origin] = true
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
