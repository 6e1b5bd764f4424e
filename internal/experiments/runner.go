package experiments

import (
	"runtime"

	"peertrack/internal/core"
)

// Every figure is a sweep of independent (network size, data volume)
// points, and every point builds its own core.Network, workload, and
// transport — nothing is shared between points, and each point derives
// its randomness from Scale.Seed alone. core.Parallel runs them on a
// bounded pool and each point writes its result into its pre-determined
// row slot, so rows and per-point Stats snapshots are byte-identical
// regardless of worker count or scheduling order.

// workers resolves the Scale's worker count: Workers if set, otherwise
// GOMAXPROCS.
func (s Scale) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runTasks runs fn(0..n-1) on core.Parallel's pool. On failure it
// returns the error of the lowest-numbered failing task — the same
// error a sequential loop would have hit first — so error output is as
// deterministic as row output.
func runTasks(workers, n int, fn func(i int) error) error {
	for _, err := range core.Parallel(n, workers, fn) {
		if err != nil {
			return err
		}
	}
	return nil
}
