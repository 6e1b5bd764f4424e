package experiments

import (
	"math/rand"
	"time"

	"peertrack/internal/core"
	"peertrack/internal/moods"
	"peertrack/internal/telemetry"
)

// TelemetryReport runs the default grouped workload on the Chord
// overlay, issues the scale's query budget, and returns the network's
// full instrument snapshot plus every span the tracer still holds,
// newest first. It backs `peertrack-bench -fig telemetry` and `make
// telemetry-demo`: a quick way to see what the registry records for a
// healthy run — and, being driven entirely by the sim kernel's virtual
// clock, its snapshot is byte-identical for a given Scale.
func TelemetryReport(s Scale) (telemetry.Snapshot, []telemetry.Span, error) {
	s.fill()
	nw, err := core.BuildNetwork(core.NetworkConfig{Nodes: s.Nodes, Seed: s.Seed})
	if err != nil {
		return telemetry.Snapshot{}, nil, err
	}
	names := make([]moods.NodeName, s.Nodes)
	for i, p := range nw.Peers() {
		names[i] = p.Name()
	}
	res, err := workloadSpec(names, s).Generate()
	if err != nil {
		return telemetry.Snapshot{}, nil, err
	}
	if err := nw.ScheduleAll(res.Observations); err != nil {
		return telemetry.Snapshot{}, nil, err
	}
	nw.StartWindows(res.Horizon + 2*time.Second)
	nw.Run()

	rng := rand.New(rand.NewSource(s.Seed + 83))
	for q := 0; q < s.Queries; q++ {
		obj := res.Objects[rng.Intn(len(res.Objects))]
		at := time.Duration(rng.Int63n(int64(res.Horizon + time.Minute)))
		nw.Peers()[rng.Intn(s.Nodes)].Locate(obj, at)
		nw.Peers()[rng.Intn(s.Nodes)].FullTrace(obj)
	}
	return nw.Telemetry.Snapshot(), nw.Telemetry.Tracer().Recent(telemetry.DefaultSpanCapacity), nil
}
