// Command peertrack-cluster is a live fault-injection harness: it
// launches a real trackd fleet on loopback, drives a tracking workload
// over TCP through the control API, injects crashes (SIGKILL),
// restarts-with-same-identity, and scheduler pauses (SIGSTOP), and
// asserts the replication failover invariant against the live stack:
//
//   - with -replicas ≥ 2 and the resilient RPC layer, every object
//     stays locatable across the crash window (zero lost reads);
//   - the factor-1 baseline, one attempt per call and no breaker,
//     provably loses reads when the same fault hits;
//   - every node's retry/breaker counters decompose exactly against its
//     transport counters (invariants.CheckResilience) — retried calls
//     are never double-counted as drops;
//   - healthy-phase protocol message counts and locate hop costs match
//     a simulated twin of the same workload within stated tolerances;
//   - a second hop of every object, posted by concurrent clients, leaves
//     every trace showing the full route and costs next to no
//     whole-unit replica push.
//
// Run from the repository root (it builds ./cmd/trackd unless -trackd
// points at a binary):
//
//	go run ./cmd/peertrack-cluster            # full run: faults + parity + baseline
//	go run ./cmd/peertrack-cluster -smoke     # CI preset: faults only, tight budget
//
// Exit status 0 means every assertion held.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

func main() {
	os.Exit(realMain())
}

// realMain keeps deferred cleanup (work-directory removal, fleet
// teardown) ahead of the process exit code.
func realMain() int {
	var (
		n        = flag.Int("n", 9, "fleet size")
		replicas = flag.Int("replicas", 2, "replication factor for the resilient fleet")
		objects  = flag.Int("objects", 24, "objects in the workload")
		smoke    = flag.Bool("smoke", false, "CI preset: crash + restart only, no parity or baseline phases")
		noBase   = flag.Bool("no-baseline", false, "skip the factor-1, one-attempt lost-reads proof")
		noPause  = flag.Bool("no-pause", false, "skip the SIGSTOP pause fault")
		budget   = flag.Duration("budget", 30*time.Second, "per-node clean-shutdown budget after SIGTERM")
		seed     = flag.Int64("seed", 1, "workload and sim-twin seed")
		trackd   = flag.String("trackd", "", "path to a trackd binary (default: go build ./cmd/trackd)")
		keep     = flag.Bool("keep", false, "keep the work directory (logs, snapshots) on exit")
	)
	flag.Parse()

	r := &run{
		n:        *n,
		replicas: *replicas,
		smoke:    *smoke,
		budget:   *budget,
		seed:     *seed,
	}
	for i := 0; i < *objects; i++ {
		r.objects = append(r.objects, fmt.Sprintf("urn:obj:%04d", i))
	}

	dir, err := os.MkdirTemp("", "peertrack-cluster-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "peertrack-cluster:", err)
		return 1
	}
	r.dir = dir
	if !*keep {
		defer os.RemoveAll(dir)
	} else {
		defer fmt.Printf("work directory kept: %s\n", dir)
	}

	bin := *trackd
	if bin == "" {
		bin = filepath.Join(dir, "trackd")
		fmt.Println("building trackd...")
		if out, err := exec.Command("go", "build", "-o", bin, "./cmd/trackd").CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "peertrack-cluster: build trackd (run from the repo root, or pass -trackd): %v\n%s", err, out)
			os.RemoveAll(dir)
			return 1
		}
	}
	r.bin = bin

	r.resilientScenario(!*smoke && !*noPause)
	if !*smoke {
		r.parityPhase()
		if !*noBase {
			r.baselineScenario()
		}
	}

	fmt.Println()
	if len(r.failures) > 0 {
		fmt.Printf("FAIL: %d assertion(s) violated\n", len(r.failures))
		for _, f := range r.failures {
			fmt.Println("  -", f)
		}
		if !*keep {
			fmt.Printf("(re-run with -keep to preserve logs)\n")
		}
		return 1
	}
	fmt.Println("PASS: live failover invariant, accounting invariants, and shutdown budget all held")
	return 0
}

type run struct {
	n        int
	replicas int
	objects  []string
	smoke    bool
	budget   time.Duration
	seed     int64
	dir      string
	bin      string

	t0       time.Time     // workload epoch: object i observed at t0+observeAt(i)
	moved    time.Duration // 0, or secondHopAfter once every object has made its second hop
	liveMsgs map[string]uint64
	liveHops []int
	liveSpan time.Duration // wall time between the two scrapes liveMsgs spans
	failures []string
	timeline []string
}

func (r *run) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
	fmt.Printf("  FAIL: "+format+"\n", args...)
}

func (r *run) logf(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

// resilientScenario is the main event: replicated fleet, resilient RPC,
// full fault schedule.
func (r *run) resilientScenario(withPause bool) {
	r.logf("== resilient fleet: %d nodes, factor %d ==", r.n, r.replicas)
	fleet, err := r.launch("resilient", []string{"-replicas", fmt.Sprint(r.replicas)})
	if err != nil {
		r.failf("launch: %v", err)
		return
	}
	defer func() {
		for _, d := range fleet {
			if d.running() {
				d.kill()
			}
		}
	}()
	if err := r.converge(fleet, 30*time.Second); err != nil {
		r.failf("ring convergence: %v", err)
		return
	}

	before, err := r.scrapeAll(fleet)
	if err != nil {
		r.failf("pre-workload scrape: %v", err)
		return
	}
	healthyStart := time.Now()

	if err := r.workload(fleet); err != nil {
		r.failf("workload: %v", err)
		return
	}
	hops, failed := r.sweep(fleet[0], 10*time.Second)
	if len(failed) > 0 {
		r.failf("healthy-phase locates failed: %v", failed)
		return
	}
	r.liveHops = hops
	r.logf("healthy phase: %d objects observed and located, mean hops %.2f", len(r.objects), meanHops(hops))

	after, err := r.scrapeAll(fleet)
	if err != nil {
		r.failf("post-workload scrape: %v", err)
		return
	}
	r.liveSpan = time.Since(healthyStart)
	sumBefore, sumAfter := sumCounters(before), sumCounters(after)
	r.liveMsgs = typeDelta(sumBefore, sumAfter, parityType)

	// The harness posts through ctlapi.Client, which keeps one control
	// connection per node alive: the workload's events must have ridden
	// the connections waitReady opened, not one dial each.
	posts := sumAfter["http.requests.method.POST"] - sumBefore["http.requests.method.POST"]
	opened := sumAfter["http.conns.opened"] - sumBefore["http.conns.opened"]
	if 4*opened > posts {
		r.failf("control connections not reused: %d opened for %d POSTs", opened, posts)
	} else {
		r.logf("control connections reused: %d opened for %d POSTs", opened, posts)
	}

	r.secondHop(fleet, sumBefore)

	// ---- fault 1: SIGKILL the busiest non-query node ----
	victim := r.pickVictim(fleet)
	if victim == nil {
		return
	}
	// The victim persists its state first, so that the restart below
	// restores a snapshot file.
	if _, err := victim.c.Snapshot(); err != nil {
		r.failf("snapshot before the kill: %v", err)
		return
	}
	r.logf("SIGKILL node %d (%s)", victim.idx, victim.listen)
	tKill := time.Now()
	victim.kill()
	hops, failed = r.sweep(fleet[0], 15*time.Second)
	recover := time.Since(tKill).Round(100 * time.Millisecond)
	if len(failed) > 0 {
		r.failf("lost reads across crash window with factor %d: %v", r.replicas, failed)
	} else {
		r.logf("crash window: all %d objects locatable within %v of the kill", len(r.objects), recover)
		r.timeline = append(r.timeline, fmt.Sprintf("kill→all-readable %v", recover))
	}

	// ---- fault 2: restart with the same identity ----
	r.logf("restarting node %d with the same listen/control/data identity", victim.idx)
	tRestart := time.Now()
	if err := victim.start(r.bin, fleet[0].listen, r.n, []string{"-replicas", fmt.Sprint(r.replicas)}); err != nil {
		r.failf("restart: %v", err)
		return
	}
	if err := victim.waitReady(20 * time.Second); err != nil {
		r.failf("restarted node: %v", err)
		return
	}
	if out, err := os.ReadFile(victim.logPath); err != nil || !strings.Contains(string(out), "restored state:") {
		r.failf("restarted node %d logged no restored state (%v)", victim.idx, err)
	} else {
		r.logf("restarted node restored the snapshot it wrote before the kill")
	}
	if err := r.converge(fleet, 30*time.Second); err != nil {
		r.failf("ring re-convergence after restart: %v", err)
	} else {
		rec := time.Since(tRestart).Round(100 * time.Millisecond)
		r.logf("restarted node rejoined; ring reconverged in %v", rec)
		r.timeline = append(r.timeline, fmt.Sprintf("restart→reconverged %v", rec))
	}
	if _, failed = r.sweep(fleet[0], 15*time.Second); len(failed) > 0 {
		r.failf("locates after restart: %v", failed)
	}

	// Survivors held pooled connections to the killed process; the
	// first reuse against its successor incarnation (or its corpse)
	// must have been detected as stale, not billed as a drop.
	metrics, err := r.scrapeAll(fleet)
	if err != nil {
		r.failf("post-restart scrape: %v", err)
		return
	}
	if stale := sumCounters(metrics)["transport.conn.stale"]; stale == 0 {
		r.failf("no stale pooled connections detected across a kill+restart")
	} else {
		r.logf("stale pooled connections detected and transparently replaced: %d", stale)
	}

	// ---- fault 3: pause (SIGSTOP) — timeouts instead of refusals ----
	if withPause {
		paused := fleet[1]
		if paused == victim {
			paused = fleet[2]
		}
		r.logf("SIGSTOP node %d for the next sweep (calls must time out and reroute)", paused.idx)
		if err := paused.pause(); err != nil {
			r.failf("pause: %v", err)
		} else {
			if _, failed = r.sweep(fleet[0], 20*time.Second); len(failed) > 0 {
				r.failf("lost reads while a node was paused: %v", failed)
			} else {
				r.logf("pause window: all objects locatable")
			}
			if err := paused.resume(); err != nil {
				r.failf("resume: %v", err)
			}
		}
		if err := r.converge(fleet, 10*time.Second); err != nil { // before the invariant scrape
			r.failf("after resume: %v", err)
		}
	}

	// ---- accounting invariants on every live node ----
	r.checkInvariants(fleet)

	// ---- clean shutdown within budget ----
	tTerm := time.Now()
	for _, d := range fleet {
		if err := d.term(r.budget); err != nil {
			r.failf("%v", err)
		}
	}
	r.logf("fleet shut down cleanly in %v (budget %v/node)", time.Since(tTerm).Round(100*time.Millisecond), r.budget)
	for _, line := range r.timeline {
		r.logf("timeline: %s", line)
	}
}

// secondHopAfter is how long after its first capture an object is
// captured at the next node.
const secondHopAfter = 30 * time.Second

// secondHop closes the healthy phase, outside the span the sim twin is
// compared over: every object moves on to the next node, posted by
// several clients at once so that handler goroutines of one node write
// the same replication units concurrently. Once the windows have
// drained, every trace must show both stops (ROADMAP item 1) and the
// fleet must have shipped next to no whole replication unit for the
// writes it took since before (replicated ingest streams units, it does
// not re-ship them). Later sweeps locate the objects at their second
// stop.
func (r *run) secondHop(fleet []*daemon, before counters) {
	const clients = 4
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(r.objects); i += clients {
				d := fleet[(i+1)%len(fleet)]
				if err := d.c.ObserveAt(r.objects[i], r.t0.Add(secondHopAfter+observeAt(i))); err != nil {
					errs <- fmt.Errorf("observe %s at node %d: %w", r.objects[i], d.idx, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		r.failf("second hop: %v", err)
		return
	}
	r.moved = secondHopAfter

	// Windows close on the daemons' own timers: poll until every trace
	// is whole.
	short := ""
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(150 * time.Millisecond) {
		short = ""
		for i, obj := range r.objects {
			tr, err := fleet[0].c.Trace(obj)
			if err != nil || len(tr.Stops) != 2 || tr.Stops[0].Node != fleet[i%len(fleet)].listen || tr.Stops[1].Node != fleet[(i+1)%len(fleet)].listen {
				short = fmt.Sprintf("%s: %v (%v)", obj, tr.Stops, err)
				break
			}
		}
		if short == "" || time.Now().After(deadline) {
			break
		}
	}
	if short != "" {
		r.failf("second hop: trace does not show the full route: %s", short)
		return
	}

	after, err := r.scrapeAll(fleet)
	if err != nil {
		r.failf("second-hop scrape: %v", err)
		return
	}
	sum := sumCounters(after)
	delta := func(name string) uint64 { return sum[name] - before[name] }
	pushes, observed := delta("core.replication.repair_pushes"), uint64(2*len(r.objects))
	report := r.logf
	if 50*pushes > observed { // more than 0.02 per observation
		report = r.failf
	}
	report("second hop by %d concurrent clients: full-route traces for all %d objects; %d whole-unit pushes for %d observations (new mirror %d, not current %d, probe mismatch %d; %d writes coalesced)",
		clients, len(r.objects), pushes, observed,
		delta("core.replication.repair_pushes.new_mirror"), delta("core.replication.repair_pushes.not_current"),
		delta("core.replication.repair_pushes.probe_mismatch"), delta("core.replication.coalesced"))
}

// checkInvariants verifies CheckResilience per node. Maintenance
// traffic never fully quiesces, so a scrape can catch a call mid-
// flight; only persistent violations count.
func (r *run) checkInvariants(fleet []*daemon) {
	var retries, opens uint64
	for _, d := range fleet {
		var lastErr string
		for attempt := 0; attempt < 6; attempt++ {
			snap, violations, err := checkResilienceMetrics(d)
			if err != nil {
				lastErr = err.Error()
			} else if len(violations) > 0 {
				lastErr = fmt.Sprintf("%v", violations)
			} else {
				lastErr = ""
				retries += snap.Retries
				opens += snap.BreakerOpens
				break
			}
			time.Sleep(500 * time.Millisecond)
		}
		if lastErr != "" {
			r.failf("node %d resilience accounting: %s", d.idx, lastErr)
		}
	}
	if retries == 0 {
		r.failf("fault schedule produced zero retries fleet-wide")
	} else {
		r.logf("accounting invariants hold on all nodes (%d retries, %d breaker opens fleet-wide)", retries, opens)
	}
}

// parityPhase compares the recorded healthy-phase traffic against the
// simulated twin.
func (r *run) parityPhase() {
	if r.liveMsgs == nil {
		return
	}
	r.logf("== sim-vs-live parity ==")
	sim, err := runSimTwin(r.n, r.replicas, r.objects, r.seed, r.liveSpan)
	if err != nil {
		r.failf("sim twin: %v", err)
		return
	}
	failures, table := compareParity(r.liveMsgs, r.liveHops, sim)
	for _, line := range strings.Split(strings.TrimRight(table, "\n"), "\n") {
		r.logf("  %s", line)
	}
	if len(failures) == 0 {
		r.logf("parity holds (per-type factor ≤ %.1f, hop means within %.1f)", parityTol, parityHopTol)
	}
	for _, f := range failures {
		r.failf("parity: %s", f)
	}
}

// baselineScenario proves the negative: factor 1 with one attempt per
// call and no breaker loses reads under the same crash.
func (r *run) baselineScenario() {
	r.logf("== baseline fleet: factor 1, one attempt, no breaker ==")
	fleet, err := r.launch("baseline", []string{"-replicas", "1", "-rpc-attempts", "1", "-breaker-threshold", "-1"})
	if err != nil {
		r.failf("baseline launch: %v", err)
		return
	}
	defer func() {
		for _, d := range fleet {
			if d.running() {
				d.kill()
			}
		}
	}()
	if err := r.converge(fleet, 30*time.Second); err != nil {
		r.failf("baseline convergence: %v", err)
		return
	}
	if err := r.workload(fleet); err != nil {
		r.failf("baseline workload: %v", err)
		return
	}
	if _, failed := r.sweep(fleet[0], 10*time.Second); len(failed) > 0 {
		r.failf("baseline healthy-phase locates failed: %v", failed)
		return
	}
	victim := r.pickVictim(fleet)
	if victim == nil {
		return
	}
	st, _ := victim.c.Status()
	r.logf("SIGKILL node %d (%d index records, no replicas)", victim.idx, st.Indexed)
	victim.kill()
	_, failed := r.sweep(fleet[0], 12*time.Second)
	if len(failed) == 0 {
		r.failf("baseline lost no reads — factor-1 crash should be visible")
	} else {
		r.logf("baseline provably lost %d/%d reads (%v ...)", len(failed), len(r.objects), failed[0])
	}
	for _, d := range fleet {
		if d.running() {
			if err := d.term(r.budget); err != nil {
				r.failf("baseline: %v", err)
			}
		}
	}
}

// launch starts a fleet under a scenario-named subdirectory and waits
// for every control API.
func (r *run) launch(name string, extra []string) ([]*daemon, error) {
	dir := filepath.Join(r.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fleet, err := newFleet(r.n, dir)
	if err != nil {
		return nil, err
	}
	if err := fleet[0].start(r.bin, "", r.n, extra); err != nil {
		return nil, err
	}
	if err := fleet[0].waitReady(20 * time.Second); err != nil {
		return nil, err
	}
	for _, d := range fleet[1:] {
		if err := d.start(r.bin, fleet[0].listen, r.n, extra); err != nil {
			return nil, err
		}
	}
	for _, d := range fleet[1:] {
		if err := d.waitReady(30 * time.Second); err != nil {
			return nil, err
		}
	}
	return fleet, nil
}

// converge waits until the successor pointers of all running nodes form
// one cycle covering the whole live fleet.
func (r *run) converge(fleet []*daemon, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if cycleComplete(fleet) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ring did not converge within %v", timeout)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func cycleComplete(fleet []*daemon) bool {
	succ := map[string]string{}
	var start string
	live := 0
	for _, d := range fleet {
		if !d.running() {
			continue
		}
		st, err := d.c.Status()
		if err != nil || st.Successor == "" || st.Predecessor == "" {
			return false
		}
		succ[st.Addr] = st.Successor
		start = st.Addr
		live++
	}
	seen := map[string]bool{}
	cur := start
	for i := 0; i < live; i++ {
		if seen[cur] {
			return false
		}
		seen[cur] = true
		next, ok := succ[cur]
		if !ok {
			return false
		}
		cur = next
	}
	return cur == start
}

// workload observes every object at its home node with deterministic
// timestamps shared with the sim twin.
func (r *run) workload(fleet []*daemon) error {
	r.t0 = time.Now().Add(-time.Minute) // all capture timestamps in the past
	r.moved = 0
	for i, obj := range r.objects {
		d := fleet[i%len(fleet)]
		if !d.running() {
			continue
		}
		if err := d.c.ObserveAt(obj, r.t0.Add(observeAt(i))); err != nil {
			return fmt.Errorf("observe %s at node %d: %w", obj, d.idx, err)
		}
	}
	// Let the capture windows close and the index puts drain.
	time.Sleep(600 * time.Millisecond)
	return nil
}

// sweep locates every object from q, retrying failures round-robin
// until the deadline: one slow object (calls into a paused node time
// out in seconds, where a crashed node refuses in microseconds) must
// not starve the rest of the set of their retry budget. It returns the
// hop count of each object's first success, in object order, and the
// objects that never resolved.
func (r *run) sweep(q *daemon, window time.Duration) (hops []int, failed []string) {
	deadline := time.Now().Add(window)
	hopByObj := make(map[string]int, len(r.objects))
	pending := append([]string(nil), r.objects...)
	at := make(map[string]time.Time, len(r.objects))
	for i, obj := range r.objects {
		at[obj] = r.t0.Add(r.moved + observeAt(i) + time.Millisecond)
	}
	for len(pending) > 0 {
		var still []string
		for _, obj := range pending {
			res, err := q.c.Locate(obj, at[obj])
			if err == nil && res.Node != "" {
				hopByObj[obj] = res.Hops
				continue
			}
			still = append(still, obj)
		}
		pending = still
		if len(pending) == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(150 * time.Millisecond)
	}
	for _, obj := range r.objects {
		if h, ok := hopByObj[obj]; ok {
			hops = append(hops, h)
		} else {
			failed = append(failed, obj)
		}
	}
	return hops, failed
}

// pickVictim returns the non-query live node holding the most index
// records — the crash that hurts reads the most.
func (r *run) pickVictim(fleet []*daemon) *daemon {
	var victim *daemon
	best := -1
	for _, d := range fleet[1:] {
		if !d.running() {
			continue
		}
		st, err := d.c.Status()
		if err != nil {
			continue
		}
		if st.Indexed > best {
			best, victim = st.Indexed, d
		}
	}
	if victim == nil {
		r.failf("no victim candidate")
	}
	return victim
}

// scrapeAll collects /metrics from every running node, index-aligned
// with the fleet (nil-safe via empty maps for dead nodes).
func (r *run) scrapeAll(fleet []*daemon) ([]counters, error) {
	out := make([]counters, len(fleet))
	for i, d := range fleet {
		if !d.running() {
			out[i] = counters{}
			continue
		}
		m, err := d.scrape()
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}
