// Command ptbench is the repository's benchmark: one process runs one
// workload against the live stack (ctlapi → Node → core → Resilient →
// TCP/gob, as a 16-node fleet inside this process on loopback) or the
// simulated one (sim.Kernel → transport.Memory → chord → core), checks
// every answer it times, and prints the metrics BENCHMARK.json names as
// one JSON object on the last line of its output.
//
//	ptbench -workload live-query -seed 1 -seconds 20 -trace 0
//	ptbench -all            every workload, untraced then traced, as a table
//	ptbench -aa 5           two sets of 5 runs per workload of the same build
//	ptbench -manifest       print BENCHMARK.json
//
// bench/run.sh builds it and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"peertrack/bench/internal/pins"
	"peertrack/bench/internal/span"
	"peertrack/bench/internal/spec"
	"peertrack/bench/internal/work"
)

var workloads = map[string]func(work.Config) (work.Result, error){
	"live-ingest":     work.Ingest,
	"live-query":      work.Query,
	"live-mixed-repl": work.Mixed,
	"sim-paper":       work.SimPaper,
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", spec.RunSeconds, "how long the run measures")
	trace := flag.String("trace", "0", "1 repeats the workload with spans kept and prints the per-layer metrics")
	out := flag.String("out", "bench/out", "directory for trace files")
	all := flag.Bool("all", false, "run every workload, untraced then traced, and print every metric")
	aa := flag.Int("aa", 0, "run every workload N times per set for two sets and compare the medians")
	parent := flag.String("parent", "", "with -aa: the parent commit's ptbench for set A (default: this build for both sets)")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json")
	flag.Parse()

	switch {
	case *manifest:
		data, err := json.MarshalIndent(spec.BuildManifest(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	case *all:
		os.Exit(runAll(*seed, *seconds))
	case *aa > 0:
		os.Exit(runAA(*aa, *seconds, *parent))
	default:
		if *trace != "0" && *trace != "1" {
			fatal(fmt.Errorf("-trace takes 0 or 1, not %q", *trace))
		}
		os.Exit(runOne(*workload, *seed, *seconds, *trace == "1", *out))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ptbench:", err)
	os.Exit(2)
}

// runOne runs one workload in this process and prints its result line.
func runOne(name string, seed int64, seconds float64, traced bool, outDir string) int {
	run, ok := workloads[name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", name))
	}
	cfg := work.Config{Seed: seed, Seconds: seconds}
	if traced {
		cfg.Rec = span.NewRecorder()
	}
	res, err := run(cfg)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", name, err))
	}
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "ptbench: wrong answer:", p)
	}

	out := result{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	if traced {
		// The layer pins do not depend on the workload; every traced run
		// takes them so that every traced run reports every layer.
		if err := pins.Run(res.PerLayer); err != nil {
			fatal(fmt.Errorf("pins: %w", err))
		}
		for _, m := range spec.PerLayer {
			out.Metrics[m.Name] = value{res.PerLayer[m.Name], m.Unit}
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fatal(err)
		}
		if err := span.WriteFile(filepath.Join(outDir, name+".trace.json"), name, cfg.Rec.Spans()); err != nil {
			fatal(err)
		}
	} else {
		for _, m := range spec.EndToEnd {
			v, ok := res.EndToEnd[m.Name]
			if !ok || v == 0 {
				fatal(fmt.Errorf("%s: end-to-end metric %s missing or zero", name, m.Name))
			}
			out.Metrics[m.Name] = value{v, m.Unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}
