package chaos

import (
	"fmt"
	"sort"
	"sync"

	"peertrack/internal/telemetry"
)

// SweepReport aggregates a batch of scenario runs.
type SweepReport struct {
	Scenarios int
	Profile   Profile
	// Failures holds the reports of failed scenarios, ascending by seed.
	Failures []Report
	// Aggregate query-accuracy counters across all scenarios.
	LocateTotal, LocateOK int
	TraceTotal, TraceOK   int
	// Telemetry merges every scenario's snapshot in seed order, making
	// the aggregate independent of the worker count.
	Telemetry telemetry.Snapshot
}

// Failed reports whether any scenario in the sweep failed.
func (s SweepReport) Failed() bool { return len(s.Failures) > 0 }

func (s SweepReport) String() string {
	ratio := func(ok, total int) float64 {
		if total == 0 {
			return 1
		}
		return float64(ok) / float64(total)
	}
	return fmt.Sprintf("%d scenarios [%s]: %d failed, locate %.4f (%d/%d), trace %.4f (%d/%d)",
		s.Scenarios, s.Profile, len(s.Failures),
		ratio(s.LocateOK, s.LocateTotal), s.LocateOK, s.LocateTotal,
		ratio(s.TraceOK, s.TraceTotal), s.TraceOK, s.TraceTotal)
}

// runSeeds evaluates run(0) … run(n−1) across the given number of
// workers and returns the results in index order, so whatever a sweep
// assembles from them is independent of the worker count.
func runSeeds[T any](n, workers int, run func(i int) T) []T {
	if workers <= 0 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = run(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// Sweep runs n scenarios with seeds cfg.Seed, cfg.Seed+1, …,
// cfg.Seed+n−1 across the given number of workers. Each scenario owns
// its whole world (kernel, transport, network), so parallel execution
// cannot perturb determinism; the aggregate is assembled in seed order.
func Sweep(cfg Config, n, workers int) SweepReport {
	cfg.fill()
	reports := runSeeds(n, workers, func(i int) Report {
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		return Run(c)
	})

	out := SweepReport{Scenarios: n, Profile: cfg.Profile}
	for _, r := range reports {
		out.LocateTotal += r.LocateTotal
		out.LocateOK += r.LocateOK
		out.TraceTotal += r.TraceTotal
		out.TraceOK += r.TraceOK
		out.Telemetry = out.Telemetry.Merge(r.Telemetry)
		if r.Failed() {
			out.Failures = append(out.Failures, r)
		}
	}
	sort.Slice(out.Failures, func(i, j int) bool { return out.Failures[i].Seed < out.Failures[j].Seed })
	return out
}

// Minimize shrinks a failing schedule while preserving its failure, by
// deterministic re-execution: first truncate to the shortest failing
// prefix of epochs, then greedily delete epochs, then shed workload
// population. The result is the smallest schedule this process can
// reach that still fails under cfg — the thing to stare at when
// debugging. If sched does not fail, it is returned unchanged.
func Minimize(cfg Config, sched Schedule) Schedule {
	cfg.fill()
	fails := func(s Schedule) bool { return RunSchedule(cfg, s).Failed() }
	if !fails(sched) {
		return sched
	}
	cur := sched

	// Shortest failing prefix: the run already stops at the first bad
	// checkpoint, so some prefix must reproduce it.
	for n := 1; n < len(cur.Epochs); n++ {
		cand := Schedule{Spec: cur.Spec, Epochs: append([]Epoch(nil), cur.Epochs[:n]...)}
		if fails(cand) {
			cur = cand
			break
		}
	}

	// Greedy epoch deletion: drop any epoch whose absence keeps the
	// failure alive.
	for i := 0; i < len(cur.Epochs); {
		if len(cur.Epochs) == 1 {
			break
		}
		cand := Schedule{Spec: cur.Spec}
		cand.Epochs = append(cand.Epochs, cur.Epochs[:i]...)
		cand.Epochs = append(cand.Epochs, cur.Epochs[i+1:]...)
		if fails(cand) {
			cur = cand
		} else {
			i++
		}
	}

	// Shed population: halve the object count while the failure holds.
	for cur.Spec.ObjectsPerNode > 1 {
		cand := cur
		cand.Spec.ObjectsPerNode /= 2
		if !fails(cand) {
			break
		}
		cur = cand
	}
	return cur
}
