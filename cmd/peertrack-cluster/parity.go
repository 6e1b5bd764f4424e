package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"peertrack/internal/core"
	"peertrack/internal/gossip"
	"peertrack/internal/moods"
)

// Parity compares the live cluster's healthy-phase protocol traffic
// against a simulated twin running the identical workload shape. The
// two stacks share every line of protocol code and run the same
// maintenance table (core.Maintained) at the same cadences for the same
// span of time — wall time on one side, virtual on the other; what
// differs is the transport (TCP vs synchronous memory) and the
// identities (ip:port vs org-names, so ring geometry and gateway
// placement differ). Message counts therefore match in shape, not
// bit-exactly — each core.* type must agree within parityTol (chord.*
// and gossip.* are maintenance of the overlay itself and left out), and
// mean locate hops within parityHopTol.

// fleetCadences are the maintenance cadences of every daemon and of the
// twin: fast, so failure detection, ring repair, and replica promotion
// converge in seconds rather than minutes.
var fleetCadences = core.Cadences{
	Gossip:      150 * time.Millisecond,
	Stabilize:   250 * time.Millisecond,
	Window:      200 * time.Millisecond,
	ReplicaSync: 300 * time.Millisecond,
}

func parityType(typ string) bool { return strings.HasPrefix(typ, "core.") }

const (
	parityTol    = 3.0 // per-type live/sim ratio bound
	parityFloor  = 12  // counts below this compare by absolute slack instead
	paritySlack  = 12  // absolute slack for sub-floor counts
	parityHopTol = 2.5 // |mean live hops − mean sim hops| bound
)

// simTwinResult carries the simulated side of the comparison.
type simTwinResult struct {
	msgs map[string]uint64
	hops []int
}

// runSimTwin executes the workload shape on a BuildNetwork simulation:
// the same node count, replication factor, object set, observation
// spacing, and locate sweep as the live cluster's healthy phase, under
// the maintenance table for as long as that phase took.
func runSimTwin(nodes, replicas int, objects []string, seed int64, span time.Duration) (simTwinResult, error) {
	nw, err := core.BuildNetwork(core.NetworkConfig{
		Nodes: nodes,
		Seed:  seed,
		Peer: core.Config{
			Mode:              core.GroupIndexing,
			NMax:              1024,
			ReplicationFactor: replicas,
		},
	})
	if err != nil {
		return simTwinResult{}, err
	}
	nw.EnableGossip(gossip.Config{})
	obss := make([]moods.Observation, len(objects))
	for i, obj := range objects {
		obss[i] = moods.Observation{Object: moods.ObjectID(obj), Node: core.NodeNameFor(i % nodes), At: observeAt(i)}
	}
	if err := nw.ScheduleAll(obss); err != nil {
		return simTwinResult{}, err
	}
	nw.StartMaintenance(fleetCadences, span)
	nw.Run()

	q := nw.Peers()[0]
	res := simTwinResult{msgs: map[string]uint64{}}
	for i, obj := range objects {
		r, err := q.Locate(moods.ObjectID(obj), observeAt(i)+time.Millisecond)
		if err != nil {
			return simTwinResult{}, fmt.Errorf("sim twin locate %s: %w", obj, err)
		}
		res.hops = append(res.hops, r.Hops)
	}

	const pfx = "transport.call.type."
	for _, c := range nw.Telemetry.Snapshot().Counters {
		if strings.HasPrefix(c.Name, pfx) {
			typ := strings.TrimPrefix(c.Name, pfx)
			if parityType(typ) && c.Value > 0 {
				res.msgs[typ] = uint64(c.Value)
			}
		}
	}
	return res, nil
}

// observeAt spaces observations 10ms apart, identically live and
// simulated, so both stacks see the same window groupings.
func observeAt(i int) time.Duration {
	return time.Duration(i+1) * 10 * time.Millisecond
}

// compareParity checks per-type message counts and mean hops. It
// returns human-readable failures (empty = parity holds) and a
// rendered table for the report.
func compareParity(live map[string]uint64, liveHops []int, sim simTwinResult) (failures []string, table string) {
	types := map[string]bool{}
	for t := range live {
		types[t] = true
	}
	for t := range sim.msgs {
		types[t] = true
	}
	names := make([]string, 0, len(types))
	for t := range types {
		names = append(names, t)
	}
	sort.Strings(names)

	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %10s %10s\n", "message type", "live", "sim")
	for _, t := range names {
		l, s := live[t], sim.msgs[t]
		fmt.Fprintf(&b, "%-28s %10d %10d\n", t, l, s)
		hi, lo := l, s
		if hi < lo {
			hi, lo = lo, hi
		}
		if hi < parityFloor {
			if hi-lo > paritySlack {
				failures = append(failures, fmt.Sprintf("%s: live=%d sim=%d differ by more than %d", t, l, s, paritySlack))
			}
			continue
		}
		if lo == 0 || float64(hi)/float64(lo) > parityTol {
			failures = append(failures, fmt.Sprintf("%s: live=%d sim=%d exceeds factor %.1f", t, l, s, parityTol))
		}
	}

	lm, sm := meanHops(liveHops), meanHops(sim.hops)
	fmt.Fprintf(&b, "%-28s %10.2f %10.2f\n", "mean locate hops", lm, sm)
	if d := lm - sm; d > parityHopTol || d < -parityHopTol {
		failures = append(failures, fmt.Sprintf("mean hops: live=%.2f sim=%.2f differ by more than %.1f", lm, sm, parityHopTol))
	}
	return failures, b.String()
}

func meanHops(hops []int) float64 {
	if len(hops) == 0 {
		return 0
	}
	sum := 0
	for _, h := range hops {
		sum += h
	}
	return float64(sum) / float64(len(hops))
}
