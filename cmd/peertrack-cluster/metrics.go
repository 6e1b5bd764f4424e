package main

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"peertrack/internal/invariants"
	"peertrack/internal/transport"
)

// counters is one node's scraped counter set.
type counters map[string]uint64

// scrape fetches and parses the daemon's /metrics text exposition,
// keeping counter lines ("counter <name> <value>").
func (d *daemon) scrape() (counters, error) {
	resp, err := http.Get("http://" + d.control + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape node %d: %w", d.idx, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape node %d: %s", d.idx, resp.Status)
	}
	out := counters{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 || fields[0] != "counter" {
			continue
		}
		v, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil {
			continue
		}
		out[fields[1]] = v
	}
	return out, sc.Err()
}

// inner reconstructs the TCP transport's snapshot.
func (c counters) inner() transport.Snapshot {
	return transport.Snapshot{
		Messages: c["transport.messages"],
		Bytes:    c["transport.bytes"],
		Calls:    c["transport.calls"],
		Failures: c["transport.failures"],
		Drops:    c["transport.drops"],
		Blocked:  c["transport.blocked"],
	}
}

// checkResilienceMetrics runs the cross-layer accounting invariants on one
// node's scraped counters: the resilient wrapper is trackd's sole
// transport caller, so retries must decompose exactly into inner
// drops/blocked — a retried call is never double-counted as a drop.
func checkResilienceMetrics(d *daemon) (transport.ResilienceSnapshot, []invariants.Violation, error) {
	m, err := d.scrape()
	if err != nil {
		return transport.ResilienceSnapshot{}, nil, err
	}
	res := transport.ResilienceFrom(func(name string) uint64 { return m[name] })
	return res, invariants.CheckResilience(res, m.inner()), nil
}

// typeDelta returns per-message-type deltas (after − before) for
// counters under transport.call.type. with the given prefix filter.
func typeDelta(before, after counters, include func(string) bool) map[string]uint64 {
	const pfx = "transport.call.type."
	out := map[string]uint64{}
	for name, v := range after {
		if !strings.HasPrefix(name, pfx) {
			continue
		}
		typ := strings.TrimPrefix(name, pfx)
		if !include(typ) {
			continue
		}
		if d := v - before[name]; d > 0 {
			out[typ] = d
		}
	}
	return out
}

// sumCounters merges per-node counter maps.
func sumCounters(ms []counters) counters {
	out := counters{}
	for _, m := range ms {
		for k, v := range m {
			out[k] += v
		}
	}
	return out
}
