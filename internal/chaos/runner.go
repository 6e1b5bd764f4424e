package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"peertrack/internal/core"
	"peertrack/internal/invariants"
	"peertrack/internal/moods"
	"peertrack/internal/telemetry"
	"peertrack/internal/workload"
)

// Report is the outcome of one scenario run. Two runs of the same
// (Config, Schedule) produce identical Reports — that equality is
// itself asserted by the harness tests.
type Report struct {
	Seed     int64
	Profile  Profile
	Schedule string
	// EpochsRun counts epochs executed before the run ended (early on
	// the first invariant violation).
	EpochsRun int
	// Violations is empty on success. On failure it holds the invariant
	// violations from the first failing checkpoint (or query/bound
	// failures).
	Violations []invariants.Violation
	// Query accuracy counters, accumulated across all epochs.
	LocateTotal, LocateOK int
	TraceTotal, TraceOK   int
	// Telemetry is the scenario network's full instrument snapshot at
	// the moment the run ended (zero if the network never built).
	Telemetry telemetry.Snapshot
}

// Failed reports whether the scenario violated any invariant or bound.
func (r Report) Failed() bool { return len(r.Violations) > 0 }

// LocateRatio returns the fraction of locate queries agreeing with the
// oracle (1 when none ran).
func (r Report) LocateRatio() float64 {
	if r.LocateTotal == 0 {
		return 1
	}
	return float64(r.LocateOK) / float64(r.LocateTotal)
}

// TraceRatio returns the fraction of trace queries agreeing with the
// oracle (1 when none ran).
func (r Report) TraceRatio() float64 {
	if r.TraceTotal == 0 {
		return 1
	}
	return float64(r.TraceOK) / float64(r.TraceTotal)
}

func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d [%s] epochs=%d locate %d/%d trace %d/%d",
		r.Seed, r.Profile, r.EpochsRun, r.LocateOK, r.LocateTotal, r.TraceOK, r.TraceTotal)
	if r.Failed() {
		fmt.Fprintf(&b, " FAIL (%d violations)", len(r.Violations))
		for i, v := range r.Violations {
			if i == 4 {
				fmt.Fprintf(&b, "\n  ... %d more", len(r.Violations)-i)
				break
			}
			fmt.Fprintf(&b, "\n  %s", v)
		}
		fmt.Fprintf(&b, "\n  schedule: %s", r.Schedule)
	}
	return b.String()
}

// Run generates the schedule for cfg and executes it.
func Run(cfg Config) Report {
	cfg.fill()
	return RunSchedule(cfg, Generate(cfg))
}

// runner holds one scenario's mutable execution state.
type runner struct {
	cfg   Config
	nw    *core.Network
	rng   *rand.Rand
	wl    workload.Result
	rep   *Report
	crash map[moods.NodeName]bool
	// lastSeen is each object's most recently *recorded* location; a
	// re-sighting at the same node is suppressed (MOODS semantics: the
	// object did not move, so L and TR are unchanged) so that
	// fault-induced skips never fabricate consecutive same-node visits.
	lastSeen map[moods.ObjectID]moods.NodeName
	// skipIOP collects objects whose histories include a departed node;
	// the departed repository took part of their chains with it, so
	// exact IOP reconstruction is structurally impossible for them.
	skipIOP map[moods.ObjectID]bool
}

// RunSchedule executes one scenario deterministically: per epoch it
// injects the scheduled fault, plays the epoch's slice of the workload
// with the fault active (including window flush pulses, so indexing
// messages really race the fault), heals, settles all buffered windows
// at drop rate zero, checks every network invariant, and issues
// oracle-verified queries. The run stops at the first violating
// checkpoint.
func RunSchedule(cfg Config, sched Schedule) (rep Report) {
	cfg.fill()
	rep = Report{Seed: cfg.Seed, Profile: cfg.Profile, Schedule: sched.String()}
	harnessFail := func(format string, args ...any) Report {
		rep.Violations = append(rep.Violations, invariants.Violation{
			Invariant: "harness", Detail: fmt.Sprintf(format, args...),
		})
		return rep
	}

	// Snapshot the scenario's instruments on every return path, so a run
	// that stops early (first violation) still reports its telemetry.
	var nw *core.Network
	defer func() {
		if nw != nil {
			rep.Telemetry = nw.Telemetry.Snapshot()
		}
	}()

	nw, err := core.BuildNetwork(core.NetworkConfig{
		Nodes: cfg.Nodes,
		Seed:  cfg.Seed,
		Peer:  core.Config{ReplicationFactor: cfg.Replication},
	})
	if err != nil {
		return harnessFail("build: %v", err)
	}
	wl, err := sched.Spec.Generate()
	if err != nil {
		return harnessFail("workload: %v", err)
	}
	r := &runner{
		cfg:      cfg,
		nw:       nw,
		rng:      rand.New(rand.NewSource(cfg.Seed ^ 0xc4a05f11)),
		wl:       wl,
		rep:      &rep,
		crash:    make(map[moods.NodeName]bool),
		lastSeen: make(map[moods.ObjectID]moods.NodeName),
		skipIOP:  make(map[moods.ObjectID]bool),
	}

	for ei, ep := range sched.Epochs {
		rep.EpochsRun = ei + 1
		if msg := r.injectFault(ep); msg != "" {
			return harnessFail("%s", msg)
		}
		if cfg.Profile == ProfileLossy {
			nw.Transport.SetDropRate(cfg.DropRate)
		}

		// Play this epoch's slice of the movement workload with the
		// fault active, then pulse the windows so flush traffic races it.
		n := len(wl.Observations)
		e := len(sched.Epochs)
		for _, obs := range wl.Observations[ei*n/e : (ei+1)*n/e] {
			r.feed(obs)
		}
		nw.Kernel.Run()
		nw.FlushAll()
		nw.FlushAll()

		// Heal everything and let rebuffered windows drain loss-free.
		r.heal()
		if !settle(nw) {
			return harnessFail("windows still buffered after settle (epoch %d)", ei)
		}

		// Checkpoint: every structural invariant must hold in both
		// profiles; exactness only where no history departed. With
		// replication on, a repair round first re-converges the mirrors
		// (it is protocol activity, like the flush pulses above), then
		// every primary must agree byte-for-byte with its k−1 copies.
		nw.SyncReplicas()
		opts := invariants.Options{Exact: cfg.Profile == ProfileSafe, SkipIOP: r.skipIOP}
		if vs := checkpoint(nw, opts); len(vs) > 0 {
			rep.Violations = vs
			return rep
		}

		r.queries(ep)
		if cfg.Profile == ProfileSafe && rep.Failed() {
			return rep
		}
	}

	if cfg.Profile == ProfileLossy {
		if rep.LocateRatio() < cfg.MinLocateOK {
			rep.Violations = append(rep.Violations, invariants.Violation{
				Invariant: "query-bounds",
				Detail: fmt.Sprintf("locate accuracy %.3f below floor %.3f (%d/%d)",
					rep.LocateRatio(), cfg.MinLocateOK, rep.LocateOK, rep.LocateTotal),
			})
		}
		if rep.TraceRatio() < cfg.MinTraceOK {
			rep.Violations = append(rep.Violations, invariants.Violation{
				Invariant: "query-bounds",
				Detail: fmt.Sprintf("trace accuracy %.3f below floor %.3f (%d/%d)",
					rep.TraceRatio(), cfg.MinTraceOK, rep.TraceOK, rep.TraceTotal),
			})
		}
	}
	return rep
}

// injectFault applies the epoch's fault to the network; membership
// changes run immediately (on the healed network), unreachability
// faults stay active until heal(). Returns a harness error message, or
// "" on success.
func (r *runner) injectFault(ep Epoch) string {
	nw := r.nw
	switch ep.Kind {
	case EpochCrash:
		k := clamp(ep.Victims, nw.Size()/3)
		perm := r.rng.Perm(nw.Size())
		for i := 0; i < k; i++ {
			p := nw.Peers()[perm[i]]
			r.crash[p.Name()] = true
			nw.Transport.Kill(p.Addr())
		}
	case EpochPartition:
		k := clamp(ep.Victims, nw.Size()/2)
		perm := r.rng.Perm(nw.Size())
		for i := 0; i < k; i++ {
			nw.Transport.Partition(nw.Peers()[perm[i]].Addr(), 1)
		}
	case EpochGrow:
		k := clamp(ep.Victims, r.cfg.Nodes+4-nw.Size())
		if k > 0 {
			if _, _, err := nw.Grow(k); err != nil {
				return fmt.Sprintf("grow(%d): %v", k, err)
			}
		}
	case EpochShrink:
		k := clamp(ep.Victims, nw.Size()-4)
		if k > 0 {
			// The leavers' repositories depart with them; every object
			// they ever observed loses part of its chain.
			for _, l := range nw.Peers()[nw.Size()-k:] {
				for obj := range l.DumpVisits() {
					r.skipIOP[obj] = true
				}
			}
			if _, _, err := nw.Shrink(k); err != nil {
				return fmt.Sprintf("shrink(%d): %v", k, err)
			}
		}
	}
	return ""
}

// feed schedules one workload observation unless its node is crashed or
// departed (the sighting never happens — neither in the network nor in
// the oracle) or it would re-sight the object at its current location.
func (r *runner) feed(obs moods.Observation) {
	if r.crash[obs.Node] {
		return
	}
	if _, ok := r.nw.PeerByName(obs.Node); !ok {
		return
	}
	if r.lastSeen[obs.Object] == obs.Node {
		return
	}
	r.lastSeen[obs.Object] = obs.Node
	// The node exists and is registered, so this cannot fail.
	if err := r.nw.ScheduleObservation(obs); err != nil {
		panic(err)
	}
}

// heal revives crashed nodes, removes all partitions, and turns random
// loss off.
func (r *runner) heal() {
	for name := range r.crash {
		if p, ok := r.nw.PeerByName(name); ok {
			r.nw.Transport.Revive(p.Addr())
		}
	}
	r.crash = make(map[moods.NodeName]bool)
	r.nw.Transport.HealPartitions()
	r.nw.Transport.SetDropRate(0)
}

// settle pumps window flushes until no peer holds buffered
// observations. On the healed network a flush either delivers or the
// group re-buffers, so a handful of passes always suffices; the bound
// only guards against a regression that wedges a window forever.
func settle(nw *core.Network) bool {
	for pass := 0; pass < 64; pass++ {
		total := 0
		for _, p := range nw.Peers() {
			total += p.Buffered()
		}
		if total == 0 {
			return true
		}
		nw.FlushAll()
	}
	return false
}

// checkpoint runs the whole catalog over the quiesced network, then the
// transport ledger the harness owns.
func checkpoint(nw *core.Network, opts invariants.Options) []invariants.Violation {
	return append(invariants.Check(nw.Peers(), nw.Oracle, opts), invariants.CheckStats(nw.Stats().Snapshot())...)
}

// queries issues oracle-verified probes from random peers: a
// present-time locate for any object, plus a past-time locate and a
// full trace for objects with intact histories. In the safe profile any
// disagreement with the oracle is a violation; both profiles accumulate
// accuracy counters.
func (r *runner) queries(ep Epoch) {
	nw := r.nw
	now := nw.Kernel.Now()
	for q := 0; q < ep.Queries; q++ {
		obj := r.wl.Objects[r.rng.Intn(len(r.wl.Objects))]
		from := nw.Peers()[r.rng.Intn(nw.Size())]

		r.scoreLocate(from, obj, now)
		if r.skipIOP[obj] {
			continue
		}
		if now > 0 {
			r.scoreLocate(from, obj, time.Duration(r.rng.Int63n(int64(now)+1)))
		}
		r.scoreTrace(from, obj)
	}
}

func (r *runner) scoreLocate(from *core.Peer, obj moods.ObjectID, t time.Duration) {
	rep := r.rep
	want, _ := r.nw.Oracle.Locate(obj, t)
	got := moods.Nowhere
	res, err := from.Locate(obj, t)
	switch {
	case err == nil:
		got = res.Node
	case !errors.Is(err, core.ErrNotTracked):
		// Transport or walk failure: counts as a miss below.
		got = moods.NodeName("error:" + err.Error())
	}
	rep.LocateTotal++
	if got == want {
		rep.LocateOK++
	} else if r.cfg.Profile == ProfileSafe {
		rep.Violations = append(rep.Violations, invariants.Violation{
			Invariant: "query-locate", Object: obj,
			Detail: fmt.Sprintf("from %s at t=%s: got %q, want %q", from.Name(), t, got, want),
		})
	}
}

func (r *runner) scoreTrace(from *core.Peer, obj moods.ObjectID) {
	rep := r.rep
	want := r.nw.Oracle.FullTrace(obj)
	res, err := from.FullTrace(obj)
	ok := false
	switch {
	case err == nil:
		ok = res.Path.Equal(want)
	case errors.Is(err, core.ErrNotTracked):
		ok = len(want) == 0
	}
	rep.TraceTotal++
	if ok {
		rep.TraceOK++
	} else if r.cfg.Profile == ProfileSafe {
		rep.Violations = append(rep.Violations, invariants.Violation{
			Invariant: "query-trace", Object: obj,
			Detail: fmt.Sprintf("from %s: got %v (err=%v), want %v", from.Name(), res.Path.Nodes(), err, want.Nodes()),
		})
	}
}

// clamp bounds a victim count to [0, max] (never negative).
func clamp(v, max int) int {
	if max < 0 {
		max = 0
	}
	if v > max {
		return max
	}
	if v < 0 {
		return 0
	}
	return v
}
