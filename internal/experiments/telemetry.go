package experiments

import (
	"math/rand"
	"time"

	"peertrack/internal/core"
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
	run, err := Load(core.NetworkConfig{Nodes: s.Nodes, Seed: s.Seed}, sectionV(s.MaxVolume, true))
	if err != nil {
		return telemetry.Snapshot{}, nil, err
	}
	nw, res := run.Net, run.Work

	rng := rand.New(rand.NewSource(s.Seed + 83))
	for q := 0; q < s.Queries; q++ {
		obj := res.Objects[rng.Intn(len(res.Objects))]
		at := time.Duration(rng.Int63n(int64(res.Horizon + time.Minute)))
		nw.Peers()[rng.Intn(s.Nodes)].Locate(obj, at)
		nw.Peers()[rng.Intn(s.Nodes)].FullTrace(obj)
	}
	return nw.Telemetry.Snapshot(), nw.Telemetry.Tracer().Recent(telemetry.DefaultSpanCapacity), nil
}
