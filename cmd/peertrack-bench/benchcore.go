package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"peertrack/internal/chaos"
	"peertrack/internal/core"
	"peertrack/internal/experiments"
	"peertrack/internal/sim"
	"peertrack/internal/transport"
)

// BENCH_CORE.json is the repository's hot-path perf ledger: ns/op and
// allocs/op for the two innermost operations (Memory.Call and
// Kernel.Step) plus wall-clock per evaluation figure. The baseline
// block is preserved across regenerations, so the committed file always
// shows before/after for the current optimisation round and gives later
// PRs a trajectory to beat.

type coreStat struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Note        string  `json:"note,omitempty"`
}

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
	MemoryCall coreStat `json:"memory_call"`
	KernelStep coreStat `json:"kernel_step"`
	XL         *xlStat  `json:"xl,omitempty"`
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
	ReplicationOverhead float64            `json:"replication_overhead,omitempty"`
	FigureMs            map[string]float64 `json:"figure_wall_ms"`
}

type benchCoreFile struct {
	GeneratedAt  string        `json:"generated_at"`
	GoMaxProcs   int           `json:"gomaxprocs"`
	Scale        string        `json:"scale"`
	Workers      int           `json:"workers"`
	BaselineNote string        `json:"baseline_note,omitempty"`
	Baseline     *coreSnapshot `json:"baseline,omitempty"`
	Current      coreSnapshot  `json:"current"`
}

func statOf(r testing.BenchmarkResult) coreStat {
	return coreStat{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// xlStatNodes is the network size the ledger's XL stats are measured
// at. 20k nodes is big enough that per-node cost has converged and
// small enough for a CI smoke job.
const xlStatNodes = 20000

type coreBenchReq struct{ N int }

func (coreBenchReq) WireSize() int { return 32 }

func benchMemoryCall() coreStat {
	m := transport.NewMemory(1)
	addr := transport.Addr("bench-node")
	var resp any = coreBenchReq{N: 1}
	if err := m.Register(addr, func(from transport.Addr, req any) (any, error) {
		return resp, nil
	}); err != nil {
		panic(err)
	}
	var req any = coreBenchReq{N: 7}
	st := statOf(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.Call(addr, addr, req); err != nil {
				b.Fatal(err)
			}
		}
	}))
	st.Note = memoryCallNote
	return st
}

// memoryCallNote is written beside the memory_call pin in the ledger so
// the number is read against what it measures.
const memoryCallNote = "Memory.Call recording once into its telemetry registry: the only configuration, and the one every figure runs (before PR 13: 78 ns with telemetry unwired, 160 ns wired)"

func benchKernelStep() coreStat {
	k := sim.New(1)
	fn := func() {}
	return statOf(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k.Schedule(time.Microsecond, fn)
			k.Step()
		}
	}))
}

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
	sw := chaos.ChurnSweep(chaos.Churn10x(1, false), churnLedgerSeeds, runtime.GOMAXPROCS(0))
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

// ledgerCheck re-measures the XL stats and fails if they regressed
// beyond the given slack against the committed ledger's current block.
// bytes_per_node is near-deterministic, so its slack is tight;
// nodes_per_sec depends on the machine, so CI passes a generous slack.
// convergence_rounds is exactly deterministic and gated with no slack.
func ledgerCheck(path string, byteSlack, speedSlack float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var ledger benchCoreFile
	if err := json.Unmarshal(data, &ledger); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	want := ledger.Current.XL
	if want == nil {
		return fmt.Errorf("%s has no current.xl block to check against", path)
	}
	got, err := benchXLStats(want.Nodes)
	if err != nil {
		return err
	}
	fmt.Printf("# ledger-check: bytes/node %.0f (committed %.0f, slack %.0f%%), nodes/sec %.0f (committed %.0f, slack %.0f%%)\n",
		got.BytesPerNode, want.BytesPerNode, byteSlack*100,
		got.NodesPerSec, want.NodesPerSec, speedSlack*100)
	if got.BytesPerNode > want.BytesPerNode*(1+byteSlack) {
		return fmt.Errorf("bytes_per_node regressed: %.0f > %.0f (+%.0f%% slack)",
			got.BytesPerNode, want.BytesPerNode, byteSlack*100)
	}
	if got.NodesPerSec < want.NodesPerSec*(1-speedSlack) {
		return fmt.Errorf("nodes_per_sec regressed: %.0f < %.0f (-%.0f%% slack)",
			got.NodesPerSec, want.NodesPerSec, speedSlack*100)
	}
	if ledger.Current.ConvergenceRounds > 0 {
		rounds, err := benchConvergenceRounds()
		if err != nil {
			return err
		}
		fmt.Printf("# ledger-check: convergence_rounds %d (committed %d, no slack)\n",
			rounds, ledger.Current.ConvergenceRounds)
		if rounds > ledger.Current.ConvergenceRounds {
			return fmt.Errorf("convergence_rounds regressed: %d > %d (deterministic metric, no slack)",
				rounds, ledger.Current.ConvergenceRounds)
		}
	}
	if ledger.Current.ReplicationOverhead > 0 {
		ratio, err := benchReplicationOverhead()
		if err != nil {
			return err
		}
		fmt.Printf("# ledger-check: replication_overhead %.4f (committed %.4f, no slack)\n",
			ratio, ledger.Current.ReplicationOverhead)
		if ratio > ledger.Current.ReplicationOverhead*1.0001 {
			return fmt.Errorf("replication_overhead regressed: %.4f > %.4f (deterministic metric)",
				ratio, ledger.Current.ReplicationOverhead)
		}
	}
	fmt.Println("# ledger-check: ok")
	return nil
}

// benchCore measures the hot-path microbenchmarks and every figure's
// wall clock, then writes path. An existing baseline block in path is
// carried forward; if the file has none, the measurement becomes the
// baseline for future runs.
func benchCore(path, scaleName string, scale experiments.Scale) error {
	out := benchCoreFile{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Scale:       scaleName,
		Workers:     scale.Workers,
	}
	if prev, err := os.ReadFile(path); err == nil {
		var old benchCoreFile
		if json.Unmarshal(prev, &old) == nil {
			out.Baseline = old.Baseline
			out.BaselineNote = old.BaselineNote
		}
	}

	fmt.Fprintln(os.Stderr, "# bench-core: Memory.Call")
	out.Current.MemoryCall = benchMemoryCall()
	fmt.Fprintln(os.Stderr, "# bench-core: Kernel.Step")
	out.Current.KernelStep = benchKernelStep()
	fmt.Fprintln(os.Stderr, "# bench-core: XL build stats")
	xl, err := benchXLStats(xlStatNodes)
	if err != nil {
		return err
	}
	out.Current.XL = &xl
	fmt.Fprintln(os.Stderr, "# bench-core: churn10x convergence rounds")
	rounds, err := benchConvergenceRounds()
	if err != nil {
		return err
	}
	out.Current.ConvergenceRounds = rounds
	fmt.Fprintln(os.Stderr, "# bench-core: replication overhead")
	ratio, err := benchReplicationOverhead()
	if err != nil {
		return err
	}
	out.Current.ReplicationOverhead = ratio

	out.Current.FigureMs = make(map[string]float64)
	figs := []struct {
		name string
		run  func() error
	}{
		{"fig6a", func() error { _, err := experiments.Fig6a(scale); return err }},
		{"fig6b", func() error { _, err := experiments.Fig6b(scale); return err }},
		{"fig7a", func() error { _, err := experiments.Fig7a(scale); return err }},
		{"fig7b", func() error { _, err := experiments.Fig7b(scale); return err }},
		{"fig8a", func() error { _, _, err := experiments.Fig8a(scale); return err }},
		{"fig8b", func() error { _, err := experiments.Fig8b(scale); return err }},
	}
	for _, f := range figs {
		fmt.Fprintf(os.Stderr, "# bench-core: %s\n", f.name)
		start := time.Now()
		if err := f.run(); err != nil {
			return fmt.Errorf("bench-core %s: %w", f.name, err)
		}
		out.Current.FigureMs[f.name] = float64(time.Since(start).Microseconds()) / 1000
	}
	if out.Baseline == nil {
		out.Baseline = &out.Current
		out.BaselineNote = "first recorded run"
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("# bench-core: wrote %s (Memory.Call %.1f ns/op %d allocs, Kernel.Step %.1f ns/op %d allocs)\n",
		path,
		out.Current.MemoryCall.NsPerOp, out.Current.MemoryCall.AllocsPerOp,
		out.Current.KernelStep.NsPerOp, out.Current.KernelStep.AllocsPerOp)
	return nil
}
