package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"peertrack/internal/core"
	"peertrack/internal/invariants"
	"peertrack/internal/moods"
	"peertrack/internal/transport"
	"peertrack/internal/workload"
)

// Report is the outcome of one scenario run. Two runs of the same
// (Config, Schedule) produce identical Reports — that equality is
// itself asserted by the harness tests. Its Outcome's Violations are
// empty on success; on failure they hold the invariant violations from
// the first failing checkpoint (or query/bound failures), and its
// Telemetry is the scenario network's full instrument snapshot at the
// moment the run ended (zero if the network never built).
type Report struct {
	Outcome
	Profile  Profile
	Schedule string
	// EpochsRun counts epochs executed before the run ended (early on
	// the first invariant violation).
	EpochsRun int
	// Query accuracy counters, accumulated across all epochs.
	LocateTotal, LocateOK int
	TraceTotal, TraceOK   int
}

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
	s := r.line("seed %d [%s] epochs=%d locate %d/%d trace %d/%d",
		r.Seed, r.Profile, r.EpochsRun, r.LocateOK, r.LocateTotal, r.TraceOK, r.TraceTotal)
	if r.Failed() {
		s += "\n  schedule: " + r.Schedule
	}
	return s
}

// Lines is the report as printed: one entry.
func (r Report) Lines() []string { return []string{r.String()} }

// Run generates the schedule for cfg at seed and executes it: the
// generated-schedule profiles as a run function.
func (cfg Config) Run(seed int64) Report {
	return RunSchedule(cfg, seed, Generate(cfg, seed))
}

// runner holds one scenario's mutable execution state.
type runner struct {
	*world
	cfg Config
	rng *rand.Rand
	rep *Report
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
func RunSchedule(cfg Config, seed int64, sched Schedule) Report {
	return runSchedule(cfg, seed, sched, core.Config{})
}

// runSchedule is RunSchedule on peers configured as peer but for the
// replication factor: a test's seam to the individual-indexing mode.
func runSchedule(cfg Config, seed int64, sched Schedule, peer core.Config) (rep Report) {
	cfg.fill()
	rep = Report{Outcome: Outcome{Seed: seed}, Profile: cfg.Profile, Schedule: sched.String()}
	w := newWorld()
	defer w.snapshot(&rep.Outcome)
	peer.ReplicationFactor = cfg.Replication
	if err := w.build(seed, cfg.Nodes, peer, sched.Spec); err != nil {
		rep.harnessFail("%v", err)
		return rep
	}
	nw := w.nw
	r := &runner{
		world:   w,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(seed ^ 0xc4a05f11)),
		rep:     &rep,
		skipIOP: make(map[moods.ObjectID]bool),
	}

	for ei, ep := range sched.Epochs {
		rep.EpochsRun = ei + 1
		if msg := r.injectFault(ep); msg != "" {
			rep.harnessFail("%s", msg)
			return rep
		}
		if cfg.Profile == ProfileLossy {
			nw.Transport.SetDropRate(cfg.DropRate)
		}

		// Play this epoch's slice of the movement workload with the
		// fault active, then pulse the windows so flush traffic races it.
		n := len(w.wl.Observations)
		e := len(sched.Epochs)
		for _, obs := range w.wl.Observations[ei*n/e : (ei+1)*n/e] {
			w.feed(obs)
		}
		nw.Kernel.Run()
		nw.FlushAll()
		nw.FlushAll()

		// Heal everything, let rebuffered windows drain loss-free and
		// check every structural invariant in both profiles; exactness
		// only where no history departed.
		nw.Transport.HealPartitions()
		nw.Transport.SetDropRate(0)
		opts := invariants.Options{Exact: cfg.Profile == ProfileSafe, SkipIOP: r.skipIOP}
		if vs := w.checkpoint(ei, opts); len(vs) > 0 {
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
// faults stay active until the epoch's checkpoint. Returns a harness
// error message, or "" on success.
func (r *runner) injectFault(ep Epoch) string {
	nw := r.nw
	switch ep.Kind {
	case EpochCrash:
		k := clamp(ep.Victims, nw.Size()/3)
		perm := r.rng.Perm(nw.Size())
		for i := 0; i < k; i++ {
			r.kill(nw.Peers()[perm[i]].Addr())
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

// world is one scenario's network and the bookkeeping the generated and
// the replication runner share: the workload, which nodes are down, and
// where each object was last sighted.
type world struct {
	nw *core.Network
	wl workload.Result
	// crashed holds the nodes killed and not yet revived.
	crashed map[transport.Addr]bool
	// lastSeen is each object's most recently *recorded* location; a
	// re-sighting at the same node is suppressed (MOODS semantics: the
	// object did not move, so L and TR are unchanged) so that
	// fault-induced skips never fabricate consecutive same-node visits.
	lastSeen map[moods.ObjectID]moods.NodeName
}

func newWorld() *world {
	return &world{
		crashed:  make(map[transport.Addr]bool),
		lastSeen: make(map[moods.ObjectID]moods.NodeName),
	}
}

// build constructs a network of nodes peers configured as peer, and
// generates spec's workload.
func (w *world) build(seed int64, nodes int, peer core.Config, spec workload.PaperSpec) error {
	nw, err := core.BuildNetwork(core.NetworkConfig{Nodes: nodes, Seed: seed, Peer: peer})
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	w.nw = nw
	if w.wl, err = spec.Generate(); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	return nil
}

// snapshot records the network's instruments in o, so a run that stops
// early (first violation) still reports its telemetry. Deferred by every
// runner; a network that never built leaves o's telemetry zero.
func (w *world) snapshot(o *Outcome) {
	if w.nw != nil {
		o.Telemetry = w.nw.Telemetry.Snapshot()
	}
}

// feed schedules one workload observation unless its node is crashed or
// departed (the sighting never happens — neither in the network nor in
// the oracle) or it would re-sight the object at its current location.
// It reports whether the observation was scheduled.
func (w *world) feed(obs moods.Observation) bool {
	p, ok := w.nw.PeerByName(obs.Node)
	if !ok || w.crashed[p.Addr()] || w.lastSeen[obs.Object] == obs.Node {
		return false
	}
	w.lastSeen[obs.Object] = obs.Node
	// The node exists and is registered, so this cannot fail.
	if err := w.nw.ScheduleObservation(obs); err != nil {
		panic(err)
	}
	return true
}

// kill crashes addr until the next checkpoint revives it.
func (w *world) kill(addr transport.Addr) {
	w.crashed[addr] = true
	w.nw.Transport.Kill(addr)
}

// checkpoint revives every crashed node, settles the windows, runs a
// repair round that re-converges the mirrors (protocol activity, like
// the flush pulses), then checks the whole catalog — with replication
// on, every primary must agree byte for byte with its k−1 copies — and
// the transport ledger the harness owns.
func (w *world) checkpoint(epoch int, opts invariants.Options) []invariants.Violation {
	nw := w.nw
	for addr := range w.crashed {
		nw.Transport.Revive(addr)
	}
	clear(w.crashed)
	if !settle(nw) {
		return []invariants.Violation{{Invariant: "harness",
			Detail: fmt.Sprintf("windows still buffered after settle (epoch %d)", epoch)}}
	}
	nw.SyncReplicas()
	return append(invariants.Check(nw.Peers(), nw.Oracle, opts), invariants.CheckStats(nw.Stats().Snapshot())...)
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
