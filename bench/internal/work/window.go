package work

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"peertrack/internal/telemetry"
)

// window is the measurement taken around a timed window: telemetry and
// allocator counters before and after.
type window struct {
	snapshot  func() telemetry.Snapshot
	start     time.Time
	seconds   float64
	telBefore telemetry.Snapshot
	telAfter  telemetry.Snapshot
	memBefore runtime.MemStats
	memAfter  runtime.MemStats
	cpuBefore time.Duration
	cpu       time.Duration // process CPU time, user and system, spent in the window
}

func openWindow(snapshot func() telemetry.Snapshot) *window {
	w := &window{snapshot: snapshot, telBefore: snapshot()}
	runtime.ReadMemStats(&w.memBefore)
	w.cpuBefore = cpuTime()
	w.start = time.Now()
	return w
}

// cpuTime is the CPU time the process has used so far, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (w *window) close() {
	w.seconds = time.Since(w.start).Seconds()
	w.cpu = cpuTime() - w.cpuBefore
	runtime.ReadMemStats(&w.memAfter)
	w.telAfter = w.snapshot()
}

// counter is a telemetry counter's growth over the window.
func (w *window) counter(name string) float64 {
	return float64(counterOf(w.telAfter, name)) - float64(counterOf(w.telBefore, name))
}

// counters sums the growth of every counter whose name has the prefix
// and passes keep.
func (w *window) counters(prefix string, keep func(suffix string) bool) float64 {
	sum := 0.0
	for _, c := range w.telAfter.Counters {
		if suffix, ok := strings.CutPrefix(c.Name, prefix); ok && keep(suffix) {
			sum += float64(c.Value) - float64(counterOf(w.telBefore, c.Name))
		}
	}
	return sum
}

// hist is a histogram's growth over the window: sum and count.
func (w *window) hist(name string) (sum, count float64) {
	s1, c1 := histOf(w.telAfter, name)
	s0, c0 := histOf(w.telBefore, name)
	return float64(s1 - s0), float64(c1 - c0)
}

func counterOf(s telemetry.Snapshot, name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

func histOf(s telemetry.Snapshot, name string) (sum int64, count uint64) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h.Sum, h.Count
		}
	}
	return 0, 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// maintenanceCall reports whether a P2P request type belongs to ring or
// membership upkeep rather than to an observe, a locate or a trace.
func maintenanceCall(typ string) bool {
	switch typ {
	case "chord.pingReq", "chord.getStateReq", "chord.notifyReq":
		return true
	}
	return strings.HasPrefix(typ, "gossip.")
}

// layerMetrics reads the per-layer counts every live workload shares
// from the window's telemetry growth. ops is the number of timed
// operations, observes the number of capture events among them.
func (w *window) layerMetrics(ops, observes float64, out map[string]float64) {
	out["ctlapi.requests"] = w.counter("http.requests")

	out["core.flushes"] = w.counter("core.window.flushes")
	groups, flushes := w.hist("core.window.groups")
	out["core.groups_per_flush"] = ratio(groups, flushes)
	out["core.events_per_group"] = ratio(observes+w.counter("core.window.rebuffered"), groups)
	out["core.rebuffered"] = w.counter("core.window.rebuffered")
	out["core.stitch_deferred"] = w.counter("core.stitch.deferred")
	out["core.stitch_abandoned"] = w.counter("core.stitch.abandoned")
	hops, n := w.hist("core.locate.hops")
	out["core.locate_hops_mean"] = ratio(hops, n)
	hops, n = w.hist("core.trace.hops")
	out["core.trace_hops_mean"] = ratio(hops, n)
	out["core.ascent_fetches"] = w.counter("core.triangle.ascent_fetches")
	out["core.delegations"] = w.counter("core.triangle.delegations")

	out["replication.mirror_writes_per_obs"] = ratio(w.counter("core.replication.mirror_writes"), observes)
	out["replication.repair_pushes_per_obs"] = ratio(w.counter("core.replication.repair_pushes"), observes)
	out["replication.probes"] = w.counter("core.replication.probes")

	out["chord.lookups_per_op"] = ratio(w.counter("chord.lookups"), ops)
	hops, n = w.hist("chord.lookup.hops")
	out["chord.lookup_hops_mean"] = ratio(hops, n)
	out["chord.lookup_failures"] = w.counter("chord.lookup.failures")
	out["chord.stabilize_rounds"] = w.counter("chord.stabilize.rounds")

	calls := w.counter("transport.calls")
	out["transport.calls_per_op"] = ratio(calls, ops)
	callNs, n := w.hist("transport.call.latency_ns")
	out["transport.call_us_mean"] = ratio(callNs, n) / 1e3
	out["transport.time_share"] = callNs / 1e9 / (w.seconds * Clients)
	out["transport.maintenance_call_share"] = ratio(w.counters("transport.call.type.", maintenanceCall), calls)
	out["transport.failures"] = w.counter("transport.failures")
	out["transport.drops"] = w.counter("transport.drops")
	out["transport.blocked"] = w.counter("transport.blocked")
	out["transport.conn_stale"] = w.counter("transport.conn.stale")
	out["transport.resilient_retries"] = w.counter("transport.resilient.retries")
	out["transport.breaker_opens"] = w.counter("transport.resilient.breaker_opens")

	out["gossip.rounds"] = w.counter("gossip.rounds")
	out["gossip.exchange_failures"] = w.counter("gossip.exchange.failures")
	out["gossip.deaths"] = w.counter("gossip.deaths")

	out["runtime.allocs_per_op"] = ratio(float64(w.memAfter.Mallocs-w.memBefore.Mallocs), ops)
	out["runtime.cpu_us_per_op"] = ratio(float64(w.cpu)/1e3, ops)
	out["runtime.gc_pause_ms"] = float64(w.memAfter.PauseTotalNs-w.memBefore.PauseTotalNs) / 1e6
}

// msgsPerOp is the number of P2P messages (two per completed round
// trip, one per lost call) per timed operation, upkeep included.
func (w *window) msgsPerOp(ops float64) float64 {
	msgs := 2*w.counter("transport.calls") - w.counter("transport.drops") - w.counter("transport.blocked")
	return ratio(msgs, ops)
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
