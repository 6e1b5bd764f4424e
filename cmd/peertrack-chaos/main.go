// Command peertrack-chaos runs batches of seeded chaos scenarios
// against the full PeerTrack stack and reports the verdict. Each
// scenario is fully determined by its seed: the same seed always yields
// the same fault schedule, message interleaving, and result, so any
// failure this command prints reproduces with `-seed N`.
//
// Usage:
//
//	peertrack-chaos [-seeds N] [-seed N] [-profile safe|lossy|both|churn10x|repl]
//	                [-nodes N] [-epochs N] [-drop P] [-replication K]
//	                [-workers N] [-telemetry FILE] [-v]
//
// Without -seed it sweeps -seeds scenarios starting at seed 1 (split
// 4:1 between the safe and lossy profiles when -profile both). On any
// failure it minimizes the first failing schedule by deterministic
// re-execution and prints the shrunk reproduction before exiting 1.
//
// -profile churn10x selects the paired 10×-churn regression instead:
// each seed runs the same permanent-crash schedule twice and requires
// the Chord-only run to fail reconvergence and the gossip-assisted run
// to pass it (see internal/chaos.RunChurnPair).
//
// -profile repl selects the paired replication-failover regression:
// each seed crashes factor−1 index primaries mid-schedule and reads
// every settled object during the window. The replicated run (factor
// -replication, default 2) must answer all of them from surviving
// copies; the factor-1 baseline under the identical crash schedule
// must provably lose reads (see internal/chaos.RunReplicationPair).
//
// -replication K also applies to the safe/lossy profiles: every
// scenario network keeps K total copies of each gateway bucket and IOP
// repository, and every checkpoint additionally verifies
// replica agreement.
//
// With -telemetry FILE the merged telemetry snapshot of all scenarios
// (counters, histograms, span totals, in seed order, so independent of
// -workers) is written to FILE as a text exposition — byte-identical
// across reruns of the same configuration.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"peertrack/internal/chaos"
	"peertrack/internal/invariants"
	"peertrack/internal/telemetry"
)

func main() {
	seeds := flag.Int("seeds", 100, "number of seeded scenarios to sweep")
	seed := flag.Int64("seed", 0, "run exactly this one seed instead of sweeping")
	profile := flag.String("profile", "both", "safe, lossy, or both (sweeps split 4:1)")
	nodes := flag.Int("nodes", 0, "initial network size (0 = harness default)")
	epochs := flag.Int("epochs", 0, "fault epochs per scenario (0 = harness default)")
	drop := flag.Float64("drop", 0, "lossy-profile drop rate (0 = harness default)")
	replication := flag.Int("replication", 0, "total copies of gateway state, incl. primary (0 = profile default)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel scenarios")
	telemetryOut := flag.String("telemetry", "", "write the merged telemetry exposition to this file")
	verbose := flag.Bool("v", false, "print every scenario report")
	flag.Parse()
	if *drop < 0 || *drop >= 1 {
		badFlag("-drop %v is not a drop rate in [0, 1)", *drop)
	}
	if *replication < 0 {
		badFlag("-replication %d is negative", *replication)
	}
	if *profile == "repl" && *replication == 1 {
		badFlag("-replication 1 leaves -profile repl nothing to compare: its baseline runs at factor 1 (want 2 or more)")
	}

	switch *profile {
	case "churn10x":
		runPairs(*seed, *seeds, *workers, *telemetryOut, *verbose,
			func(s int64) pairRun { return churnRun(chaos.RunChurnPair(chaos.ChurnConfig{Seed: s})) },
			func(n, w int) pairSweep {
				sw := chaos.ChurnSweep(chaos.ChurnConfig{Seed: 1}, n, w)
				return pairSweep{sw, sw.Telemetry, firstFailure(sw.Failures, churnRun)}
			})
		return
	case "repl":
		cfg := func(s int64) chaos.ReplicationConfig {
			return chaos.ReplicationConfig{Seed: s, Nodes: *nodes, Factor: *replication}
		}
		runPairs(*seed, *seeds, *workers, *telemetryOut, *verbose,
			func(s int64) pairRun { return replRun(chaos.RunReplicationPair(cfg(s))) },
			func(n, w int) pairSweep {
				sw := chaos.ReplicationSweep(cfg(1), n, w)
				return pairSweep{sw, sw.Telemetry, firstFailure(sw.Failures, replRun)}
			})
		return
	}

	base := chaos.Config{Nodes: *nodes, Epochs: *epochs, DropRate: *drop, Replication: *replication}
	var merged telemetry.Snapshot

	if *seed != 0 {
		ok := true
		for _, p := range profilesFor(*profile) {
			cfg := base
			cfg.Seed = *seed
			cfg.Profile = p
			rep := chaos.Run(cfg)
			fmt.Println(rep)
			merged = merged.Merge(rep.Telemetry)
			if rep.Failed() {
				minimize(cfg)
				ok = false
			}
		}
		writeTelemetry(*telemetryOut, merged)
		if !ok {
			os.Exit(1)
		}
		return
	}

	failed := false
	for _, p := range profilesFor(*profile) {
		n := *seeds
		if *profile == "both" {
			// 4:1 safe:lossy — structural correctness gets the bulk of the
			// budget; the lossy share bounds degradation under loss.
			if p == chaos.ProfileSafe {
				n = *seeds * 4 / 5
			} else {
				n = *seeds - *seeds*4/5
			}
		}
		if n == 0 {
			continue
		}
		cfg := base
		cfg.Seed = 1
		cfg.Profile = p
		sw := chaos.Sweep(cfg, n, *workers)
		fmt.Println(sw)
		merged = merged.Merge(sw.Telemetry)
		if *verbose {
			for s := int64(0); s < int64(n); s++ {
				c := cfg
				c.Seed = cfg.Seed + s
				fmt.Println(" ", chaos.Run(c))
			}
		}
		if sw.Failed() {
			failed = true
			first := sw.Failures[0]
			fmt.Printf("\nfirst failure:\n%s\n", first)
			c := cfg
			c.Seed = first.Seed
			minimize(c)
		}
	}
	writeTelemetry(*telemetryOut, merged)
	if failed {
		os.Exit(1)
	}
}

// pairRun is one seed of a paired profile: the two runs of the same
// schedule in print order, the telemetry the profile writes (the
// gossip-assisted or the replicated run's), and the violations of the
// pair's expectation.
type pairRun struct {
	seed       int64
	runs       [2]fmt.Stringer
	telemetry  telemetry.Snapshot
	violations []invariants.Violation
}

func churnRun(p chaos.ChurnPairReport) pairRun {
	return pairRun{p.ChordOnly.Seed, [2]fmt.Stringer{p.ChordOnly, p.Gossip}, p.Gossip.Telemetry, p.Violations}
}

func replRun(p chaos.ReplicationPairReport) pairRun {
	return pairRun{p.Replicated.Seed, [2]fmt.Stringer{p.Replicated, p.Baseline}, p.Replicated.Telemetry, p.Violations}
}

// pairSweep is a paired profile's sweep: its summary line, its merged
// telemetry, and its lowest failing seed (nil when every pair held).
type pairSweep struct {
	summary   fmt.Stringer
	telemetry telemetry.Snapshot
	failed    *pairRun
}

func firstFailure[P any](failures []P, view func(P) pairRun) *pairRun {
	if len(failures) == 0 {
		return nil
	}
	first := view(failures[0])
	return &first
}

// runPairs runs a paired profile — churn10x or repl — where every seed
// executes one schedule twice and the two runs must discriminate. A
// single -seed runs one pair and prints both runs; otherwise -seeds
// pairs sweep from seed 1. Exits 1 when any pair misses the
// expectation.
func runPairs(seed int64, seeds, workers int, telemetryOut string, verbose bool,
	run func(seed int64) pairRun, sweep func(seeds, workers int) pairSweep) {
	var failed *pairRun
	if seed != 0 {
		p := run(seed)
		fmt.Println(p.runs[0])
		fmt.Println(p.runs[1])
		writeTelemetry(telemetryOut, p.telemetry)
		if len(p.violations) > 0 {
			failed = &p
		}
	} else {
		sw := sweep(seeds, workers)
		fmt.Println(sw.summary)
		for s := int64(1); verbose && s <= int64(seeds); s++ {
			p := run(s)
			fmt.Println(" ", p.runs[0])
			fmt.Println(" ", p.runs[1])
		}
		writeTelemetry(telemetryOut, sw.telemetry)
		if failed = sw.failed; failed != nil {
			fmt.Printf("\nfirst failing pair (seed %d):\n", failed.seed)
		}
	}
	if failed != nil {
		for _, v := range failed.violations {
			fmt.Println(" ", v)
		}
		os.Exit(1)
	}
}

// writeTelemetry dumps the merged exposition to path ("" disables; "-"
// prints to stdout) and always logs the one-line totals.
func writeTelemetry(path string, snap telemetry.Snapshot) {
	fmt.Printf("telemetry: %d counters, %d histograms, %d spans\n",
		len(snap.Counters), len(snap.Histograms), snap.Spans)
	if path == "" {
		return
	}
	text := snap.Text()
	if path == "-" {
		fmt.Print(text)
		return
	}
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "peertrack-chaos: write telemetry: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("telemetry exposition written to %s\n", path)
}

// minimize shrinks cfg's failing schedule and prints the reproduction.
func minimize(cfg chaos.Config) {
	sched := chaos.Generate(cfg)
	min := chaos.Minimize(cfg, sched)
	fmt.Printf("\nminimal reproduction (seed %d, %s profile):\n  schedule: %s\n  %s\n",
		cfg.Seed, cfg.Profile, min, chaos.RunSchedule(cfg, min))
}

func profilesFor(name string) []chaos.Profile {
	switch name {
	case "safe":
		return []chaos.Profile{chaos.ProfileSafe}
	case "lossy":
		return []chaos.Profile{chaos.ProfileLossy}
	case "both":
		return []chaos.Profile{chaos.ProfileSafe, chaos.ProfileLossy}
	default:
		badFlag("unknown profile %q (want safe, lossy, both, churn10x, or repl)", name)
		return nil
	}
}

// badFlag reports a flag value out of its range and exits 2, as the
// flag package does for one it cannot parse.
func badFlag(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "peertrack-chaos: "+format+"\n", args...)
	os.Exit(2)
}
