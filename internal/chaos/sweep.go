package chaos

import (
	"fmt"
	"strings"

	"peertrack/internal/core"
	"peertrack/internal/invariants"
	"peertrack/internal/telemetry"
)

// Outcome is what every verdict carries, whatever its profile: the
// seed, the violations that fail it (none when it passed) and the
// telemetry a sweep merges.
type Outcome struct {
	Seed       int64
	Violations []invariants.Violation
	Telemetry  telemetry.Snapshot
}

// Failed reports whether the run violated an invariant or missed its
// profile's expectation.
func (o Outcome) Failed() bool { return len(o.Violations) > 0 }

func (o Outcome) outcome() Outcome { return o }

// harnessFail records that the harness itself could not carry the run
// on (a network that did not build, a fault it could not inject).
func (o *Outcome) harnessFail(format string, args ...any) {
	o.Violations = append(o.Violations, invariants.Violation{
		Invariant: "harness", Detail: fmt.Sprintf(format, args...),
	})
}

// line renders a run's one-line header and, when the run failed, the
// tail every report prints: the violation count, the first four
// violations and how many more there are.
func (o Outcome) line(format string, args ...any) string {
	var b strings.Builder
	fmt.Fprintf(&b, format, args...)
	if o.Failed() {
		fmt.Fprintf(&b, " FAIL (%d violations)", len(o.Violations))
		for i, v := range o.Violations {
			if i == 4 {
				fmt.Fprintf(&b, "\n  ... %d more", len(o.Violations)-i)
				break
			}
			fmt.Fprintf(&b, "\n  %s", v)
		}
	}
	return b.String()
}

// Verdict is one seed's outcome under any profile: a generated
// schedule's Report, a ChurnPairReport or a ReplicationPairReport. A
// profile is a function from a seed to its verdict.
type Verdict interface {
	// Failed reports whether the seed failed its profile.
	Failed() bool
	// Lines is the verdict as printed, one entry per run, each with its
	// own violations (a pair's missed expectations are its Violations).
	Lines() []string
	outcome() Outcome
}

// SweepReport is a sweep's verdicts and what it keeps of them, all in
// seed order.
type SweepReport[V Verdict] struct {
	// Verdicts holds every seed's verdict, ascending by seed.
	Verdicts []V
	// Failures holds the failed verdicts, ascending by seed.
	Failures []V
	// Telemetry merges every verdict's snapshot in seed order.
	Telemetry telemetry.Snapshot
}

// Failed reports whether any seed in the sweep failed.
func (s SweepReport[V]) Failed() bool { return len(s.Failures) > 0 }

// Sweep runs run(first), run(first+1), …, run(first+n−1) across the
// given number of workers. Each seed owns its whole world (kernel,
// transport, network), so parallel execution cannot perturb
// determinism, and the report, assembled in seed order, is the same at
// any worker count.
func Sweep[V Verdict](run func(seed int64) V, first int64, n, workers int) SweepReport[V] {
	out := SweepReport[V]{Verdicts: core.Parallel(n, workers, func(i int) V { return run(first + int64(i)) })}
	for _, v := range out.Verdicts {
		out.Telemetry = out.Telemetry.Merge(v.outcome().Telemetry)
		if v.Failed() {
			out.Failures = append(out.Failures, v)
		}
	}
	return out
}

// Minimize shrinks a failing schedule while preserving its failure, by
// deterministic re-execution: first truncate to the shortest failing
// prefix of epochs, then greedily delete epochs, then shed workload
// population. The result is the smallest schedule this process can
// reach that still fails under cfg at seed — the thing to stare at when
// debugging. If sched does not fail, it is returned unchanged.
func Minimize(cfg Config, seed int64, sched Schedule) Schedule {
	cfg.fill()
	fails := func(s Schedule) bool { return RunSchedule(cfg, seed, s).Failed() }
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
