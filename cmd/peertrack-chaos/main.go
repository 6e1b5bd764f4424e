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
// Every profile is a function from a seed to a verdict, and every
// profile runs the same way: -seed N judges that one seed and prints
// its runs; otherwise -seeds seeds sweep from seed 1 (split 4:1 between
// the safe and lossy profiles when -profile both), the sweep prints one
// summary line, and -v prints every stored verdict. On any failure it
// prints the first failing seed and exits 1: a generated schedule with
// its reproduction minimized by deterministic re-execution, a pair with
// the expectations it missed, below the telemetry line.
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
// must provably lose reads (see internal/chaos.ReplicationConfig.Run).
//
// -replication K also applies to the safe/lossy profiles: every
// scenario network keeps K total copies of each gateway bucket and IOP
// repository, and every checkpoint additionally verifies
// replica agreement. A flag the chosen profile does not read is
// refused: churn10x reads none of -nodes, -epochs, -drop and
// -replication, repl neither -epochs nor -drop, and safe not -drop.
//
// With -telemetry FILE the merged telemetry snapshot of all scenarios
// (counters, histograms, span totals, in seed order, so independent of
// -workers) is written to FILE as a text exposition — byte-identical
// across reruns of the same configuration.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"

	"peertrack/internal/chaos"
	"peertrack/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// unread names, per profile, the flags it does not read.
var unread = map[string][]string{
	"safe":     {"drop"},
	"churn10x": {"nodes", "epochs", "drop", "replication"},
	"repl":     {"epochs", "drop"},
}

// churnPair is the churn10x profile; a test plants failures through it.
var churnPair = chaos.RunChurnPair

// run is the command: it parses args, prints to stdout and stderr, and
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("peertrack-chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seeds := fs.Int("seeds", 100, "number of seeded scenarios to sweep")
	seed := fs.Int64("seed", 0, "run exactly this one seed instead of sweeping")
	profile := fs.String("profile", "both", "safe, lossy, both (sweeps split 4:1), churn10x, or repl")
	nodes := fs.Int("nodes", 0, "initial network size (0 = harness default)")
	epochs := fs.Int("epochs", 0, "fault epochs per scenario (0 = harness default)")
	drop := fs.Float64("drop", 0, "lossy-profile drop rate (0 = harness default)")
	replication := fs.Int("replication", 0, "total copies of gateway state, incl. primary (0 = profile default)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "parallel scenarios")
	telemetryOut := fs.String("telemetry", "", "write the merged telemetry exposition to this file")
	verbose := fs.Bool("v", false, "print every scenario report")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// badFlag reports a flag the run cannot honour and exits 2, as the
	// flag package does for one it cannot parse.
	badFlag := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "peertrack-chaos: "+format+"\n", args...)
		return 2
	}
	if *drop < 0 || *drop >= 1 {
		return badFlag("-drop %v is not a drop rate in [0, 1)", *drop)
	}
	if *replication < 0 {
		return badFlag("-replication %d is negative", *replication)
	}
	if *profile == "repl" && *replication == 1 {
		return badFlag("-replication 1 leaves -profile repl nothing to compare: its baseline runs at factor 1 (want 2 or more)")
	}
	var ignored []string
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(unread[*profile], f.Name) {
			ignored = append(ignored, "-"+f.Name)
		}
	})
	if len(ignored) > 0 {
		return badFlag("-profile %s does not read %s", *profile, strings.Join(ignored, ", "))
	}

	o := opts{w: stdout, seed: *seed, workers: *workers, verbose: *verbose}
	var merged telemetry.Snapshot
	failed := false
	var missed *chaos.Outcome // a failing pair's, printed below the telemetry line
	switch *profile {
	case "churn10x":
		sw := judge(o, churnPair, *seeds, churnSummary)
		if merged = sw.Telemetry; sw.Failed() {
			missed = &sw.Failures[0].Outcome
		}
	case "repl":
		cfg := chaos.ReplicationConfig{Nodes: *nodes, Factor: *replication}
		sw := judge(o, cfg.Run, *seeds, replSummary)
		if merged = sw.Telemetry; sw.Failed() {
			missed = &sw.Failures[0].Outcome
		}
	case "safe", "lossy", "both":
		// -profile both splits the sweep 4:1 safe:lossy — structural
		// correctness gets the bulk of the budget; the lossy share bounds
		// degradation under loss.
		split := map[chaos.Profile]int{chaos.Profile(*profile): *seeds}
		if *profile == "both" {
			split = map[chaos.Profile]int{chaos.ProfileSafe: *seeds * 4 / 5, chaos.ProfileLossy: *seeds - *seeds*4/5}
		}
		for _, p := range []chaos.Profile{chaos.ProfileSafe, chaos.ProfileLossy} {
			n, ok := split[p]
			if !ok {
				continue
			}
			cfg := chaos.Config{Profile: p, Nodes: *nodes, Epochs: *epochs, DropRate: *drop, Replication: *replication}
			sw := judge(o, cfg.Run, n, generatedSummary)
			merged = merged.Merge(sw.Telemetry)
			if sw.Failed() {
				failed = true
				first := sw.Failures[0]
				if *seed == 0 {
					fmt.Fprint(stdout, "\nfirst failure:\n")
					printLines(stdout, "", first)
				}
				minimize(stdout, cfg, first.Seed)
			}
		}
	default:
		return badFlag("unknown profile %q (want safe, lossy, both, churn10x, or repl)", *profile)
	}
	if err := writeTelemetry(stdout, *telemetryOut, merged); err != nil {
		fmt.Fprintf(stderr, "peertrack-chaos: write telemetry: %v\n", err)
		return 1
	}
	if missed != nil {
		if *seed == 0 {
			fmt.Fprintf(stdout, "\nfirst failing pair (seed %d):\n", missed.Seed)
		}
		for _, v := range missed.Violations {
			fmt.Fprintln(stdout, " ", v)
		}
	}
	if failed || missed != nil {
		return 1
	}
	return 0
}

// opts is how a profile is judged: one seed (seed ≠ 0) or a sweep.
type opts struct {
	w       io.Writer
	seed    int64
	workers int
	verbose bool
}

// judge runs a profile — o.seed alone, or n seeds from seed 1 — and
// prints it: a single seed's runs, or a sweep's summary line and, under
// -v, every stored verdict. A sweep of no seeds prints nothing. What a
// failure prints is the caller's: it differs between generated
// schedules and pairs.
func judge[V chaos.Verdict](o opts, run func(seed int64) V, n int, summary func(chaos.SweepReport[V]) string) chaos.SweepReport[V] {
	if o.seed != 0 {
		sw := chaos.Sweep(run, o.seed, 1, 1)
		printLines(o.w, "", sw.Verdicts[0])
		return sw
	}
	if n <= 0 {
		return chaos.SweepReport[V]{}
	}
	sw := chaos.Sweep(run, 1, n, o.workers)
	fmt.Fprintln(o.w, summary(sw))
	if o.verbose {
		for _, v := range sw.Verdicts {
			printLines(o.w, "  ", v)
		}
	}
	return sw
}

func printLines(w io.Writer, indent string, v chaos.Verdict) {
	for _, l := range v.Lines() {
		fmt.Fprintln(w, indent+l)
	}
}

// A sweep's summary line, one per kind of verdict: generated schedules
// total their query accuracy, churn pairs report the slowest gossip
// reconvergence, replication pairs total their crash-window reads.
func generatedSummary(sw chaos.SweepReport[chaos.Report]) string {
	var sum chaos.Report
	for _, r := range sw.Verdicts {
		sum.LocateOK += r.LocateOK
		sum.LocateTotal += r.LocateTotal
		sum.TraceOK += r.TraceOK
		sum.TraceTotal += r.TraceTotal
	}
	return fmt.Sprintf("%d scenarios [%s]: %d failed, locate %.4f (%d/%d), trace %.4f (%d/%d)",
		len(sw.Verdicts), sw.Verdicts[0].Profile, len(sw.Failures),
		sum.LocateRatio(), sum.LocateOK, sum.LocateTotal,
		sum.TraceRatio(), sum.TraceOK, sum.TraceTotal)
}

func churnSummary(sw chaos.SweepReport[chaos.ChurnPairReport]) string {
	worst := 0
	for _, p := range sw.Verdicts {
		worst = max(worst, p.Gossip.MaxConverge())
	}
	return fmt.Sprintf("%d churn pairs: %d failed, max gossip convergence %d rounds",
		len(sw.Verdicts), len(sw.Failures), worst)
}

func replSummary(sw chaos.SweepReport[chaos.ReplicationPairReport]) string {
	reads, fallthroughs := 0, uint64(0)
	for _, p := range sw.Verdicts {
		reads += p.Replicated.WindowLocates
		fallthroughs += p.Replicated.Fallthroughs
	}
	return fmt.Sprintf("%d replication pairs (factor %d): %d failed, %d window reads, %d replica fallthroughs",
		len(sw.Verdicts), sw.Verdicts[0].Replicated.Factor, len(sw.Failures), reads, fallthroughs)
}

// writeTelemetry dumps the merged exposition to path ("" disables; "-"
// prints to w) and always logs the one-line totals.
func writeTelemetry(w io.Writer, path string, snap telemetry.Snapshot) error {
	fmt.Fprintf(w, "telemetry: %d counters, %d histograms, %d spans\n",
		len(snap.Counters), len(snap.Histograms), snap.Spans)
	switch path {
	case "":
		return nil
	case "-":
		_, err := io.WriteString(w, snap.Text())
		return err
	}
	if err := os.WriteFile(path, []byte(snap.Text()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "telemetry exposition written to %s\n", path)
	return nil
}

// minimize shrinks the failing schedule of cfg at seed and prints the
// reproduction.
func minimize(w io.Writer, cfg chaos.Config, seed int64) {
	min := chaos.Minimize(cfg, seed, chaos.Generate(cfg, seed))
	fmt.Fprintf(w, "\nminimal reproduction (seed %d, %s profile):\n  schedule: %s\n  %s\n",
		seed, cfg.Profile, min, chaos.RunSchedule(cfg, seed, min))
}
