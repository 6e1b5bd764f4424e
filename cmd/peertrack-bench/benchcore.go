package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"peertrack/internal/chaos"
	"peertrack/internal/core"
	"peertrack/internal/experiments"
)

// BENCH_CORE.json is the ledger of what -ledgercheck gates: the XL
// build stats and two deterministic protocol numbers. Timings of the
// layers (Memory.Call, Kernel.Step, the figures) are not in it: `make
// micro` prints them and the repository benchmark (BENCHMARK.json)
// compares them against a parent build, interleaved. The baseline block
// is preserved across regenerations, so the committed file shows what
// the compact stores bought.

// xlStat is the Scale.XL memory/throughput ledger entry: how fast a
// network builds and how much heap each node costs, measured on a
// build with the oracle disabled. bytes_per_node is the metric the
// compact-store work (slab buckets, interned prefix keys, run-length
// finger tables) is accountable to.
type xlStat struct {
	Nodes        int     `json:"nodes"`
	NodesPerSec  float64 `json:"nodes_per_sec"`
	BytesPerNode float64 `json:"bytes_per_node"`
}

type coreSnapshot struct {
	XL *xlStat `json:"xl,omitempty"`
	// ConvergenceRounds is the worst gossip-assisted reconvergence
	// latency over the churn10x ledger sweep — maintenance rounds from
	// the last fault to a clean CheckRing. Fully deterministic (seeded
	// sim), so the ledger gate allows no slack: any increase is a real
	// protocol regression.
	ConvergenceRounds int `json:"convergence_rounds,omitempty"`
	// ReplicationOverhead is the factor-2 indexing-message overhead
	// ratio from the replication sweep at a fixed tiny scale: total
	// indexing-phase messages with one mirror per bucket divided by the
	// unreplicated total. Deterministic (seeded sim, message counts),
	// so the ledger gate allows only float-formatting slack: mirroring
	// must stay an O(1)-message piggyback per primary write.
	ReplicationOverhead float64 `json:"replication_overhead,omitempty"`
}

type benchCoreFile struct {
	GeneratedAt  string        `json:"generated_at"`
	GoMaxProcs   int           `json:"gomaxprocs"`
	BaselineNote string        `json:"baseline_note,omitempty"`
	Baseline     *coreSnapshot `json:"baseline,omitempty"`
	Current      coreSnapshot  `json:"current"`
}

// xlStatNodes is the network size the ledger's XL stats are measured
// at. 20k nodes is big enough that per-node cost has converged and
// small enough for a CI smoke job.
const xlStatNodes = 20000

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// benchXLStats builds an oracle-free network of n nodes and measures
// build throughput and per-node heap cost.
func benchXLStats(n int) (xlStat, error) {
	before := heapAlloc()
	start := time.Now()
	nw, err := core.BuildNetwork(core.NetworkConfig{Nodes: n, Seed: 1, NoOracle: true})
	if err != nil {
		return xlStat{}, err
	}
	secs := time.Since(start).Seconds()
	after := heapAlloc()
	runtime.KeepAlive(nw)
	return xlStat{
		Nodes:        n,
		NodesPerSec:  float64(n) / secs,
		BytesPerNode: float64(after-before) / float64(n),
	}, nil
}

// churnLedgerSeeds is the number of paired churn10x scenarios the
// convergence_rounds ledger entry sweeps (seeds 1…N).
const churnLedgerSeeds = 5

// benchConvergenceRounds runs the churn10x ledger sweep and returns the
// worst gossip-assisted reconvergence latency. Errors if any pair
// misses the paired expectation (chord-only fails, gossip passes) —
// the ledger must never record a latency from a broken sweep.
func benchConvergenceRounds() (int, error) {
	sw := chaos.ChurnSweep(chaos.ChurnConfig{Seed: 1}, churnLedgerSeeds, runtime.GOMAXPROCS(0))
	if sw.Failed() {
		first := sw.Failures[0]
		return 0, fmt.Errorf("churn sweep: %d pairs failed, first (seed %d): %v",
			len(sw.Failures), first.ChordOnly.Seed, first.Violations)
	}
	return sw.MaxConverge, nil
}

// benchReplicationOverhead measures the factor-2 message overhead of
// k-successor replication on a fixed tiny workload. The sweep also
// re-asserts the failover acceptance bar (every crash-window read
// answered), so a ledger run doubles as a correctness check.
func benchReplicationOverhead() (float64, error) {
	s := experiments.Tiny()
	s.Nodes = 16
	s.MaxVolume = 150
	s.Queries = 25
	rows, err := experiments.ExpReplication(s)
	if err != nil {
		return 0, err
	}
	return rows[1].MsgOverhead, nil
}

// measure takes the ledger's three measurements, the XL build at n
// nodes. It errors rather than record a number from a broken sweep.
func measure(n int) (coreSnapshot, error) {
	fmt.Fprintln(os.Stderr, "# bench-core: XL build stats")
	xl, err := benchXLStats(n)
	if err != nil {
		return coreSnapshot{}, err
	}
	fmt.Fprintln(os.Stderr, "# bench-core: churn10x convergence rounds")
	rounds, err := benchConvergenceRounds()
	if err != nil {
		return coreSnapshot{}, err
	}
	fmt.Fprintln(os.Stderr, "# bench-core: replication overhead")
	ratio, err := benchReplicationOverhead()
	if err != nil {
		return coreSnapshot{}, err
	}
	return coreSnapshot{XL: &xl, ConvergenceRounds: rounds, ReplicationOverhead: ratio}, nil
}

// ledgerCheck re-measures and fails on a regression against the
// committed ledger's current block. bytes_per_node is near-deterministic,
// so its slack is tight. convergence_rounds and replication_overhead are
// exactly deterministic (seeded sim, message counts) and gated with no
// slack beyond float formatting. nodes_per_sec is printed, not gated: on
// a shared VM one tree reads more than 10 % apart from run to run.
func ledgerCheck(path string, byteSlack float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var ledger benchCoreFile
	if err := json.Unmarshal(data, &ledger); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	want := ledger.Current
	if want.XL == nil {
		return fmt.Errorf("%s has no current.xl block to check against", path)
	}
	got, err := measure(want.XL.Nodes)
	if err != nil {
		return err
	}
	fmt.Printf("# ledger-check: bytes/node %.0f (committed %.0f, slack %.0f%%), nodes/sec %.0f (committed %.0f, not gated)\n",
		got.XL.BytesPerNode, want.XL.BytesPerNode, byteSlack*100,
		got.XL.NodesPerSec, want.XL.NodesPerSec)
	fmt.Printf("# ledger-check: convergence_rounds %d (committed %d, no slack)\n", got.ConvergenceRounds, want.ConvergenceRounds)
	fmt.Printf("# ledger-check: replication_overhead %.4f (committed %.4f, no slack)\n", got.ReplicationOverhead, want.ReplicationOverhead)
	switch {
	case got.XL.BytesPerNode > want.XL.BytesPerNode*(1+byteSlack):
		return fmt.Errorf("bytes_per_node regressed: %.0f > %.0f (+%.0f%% slack)",
			got.XL.BytesPerNode, want.XL.BytesPerNode, byteSlack*100)
	case got.ConvergenceRounds > want.ConvergenceRounds:
		return fmt.Errorf("convergence_rounds regressed: %d > %d (deterministic metric, no slack)",
			got.ConvergenceRounds, want.ConvergenceRounds)
	case got.ReplicationOverhead > want.ReplicationOverhead*1.0001:
		return fmt.Errorf("replication_overhead regressed: %.4f > %.4f (deterministic metric)",
			got.ReplicationOverhead, want.ReplicationOverhead)
	}
	fmt.Println("# ledger-check: ok")
	return nil
}

// benchCore measures and writes path. An existing baseline block in
// path is carried forward; if the file has none, the measurement becomes
// the baseline for future runs.
func benchCore(path string) error {
	out := benchCoreFile{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}
	if prev, err := os.ReadFile(path); err == nil {
		var old benchCoreFile
		if json.Unmarshal(prev, &old) == nil {
			out.Baseline = old.Baseline
			out.BaselineNote = old.BaselineNote
		}
	}
	var err error
	if out.Current, err = measure(xlStatNodes); err != nil {
		return err
	}
	if out.Baseline == nil {
		out.Baseline = &out.Current
		out.BaselineNote = "first recorded run"
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("# bench-core: wrote %s (%.0f bytes/node, %d convergence rounds, replication overhead %.4f)\n",
		path, out.Current.XL.BytesPerNode, out.Current.ConvergenceRounds, out.Current.ReplicationOverhead)
	return nil
}
