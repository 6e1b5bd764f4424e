package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"peertrack/bench/internal/spec"
	"peertrack/bench/internal/stats"
)

// child runs one workload in a process of its own — binary is this
// program or, for set A of -aa, the parent commit's build of it — and
// parses the result line.
func child(binary, workload string, seed int64, seconds float64, traced bool) (result, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(binary,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if perr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); perr != nil {
		if err != nil {
			return res, fmt.Errorf("%s seed %d: %w", workload, seed, err)
		}
		return res, fmt.Errorf("%s seed %d: no result line: %w", workload, seed, perr)
	}
	return res, nil
}

// runAll runs every workload, untraced for the end-to-end metrics and
// traced for the per-layer ones, and prints every metric by name with
// its unit. It returns non-zero if any answer was wrong.
func runAll(seed int64, seconds float64) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	status := 0
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := child(self, w.Name, seed, seconds, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ptbench:", err)
				status = 1
				continue
			}
			kind, metrics := "end-to-end", spec.EndToEnd
			if traced {
				kind, metrics = "per-layer", spec.PerLayer
			}
			fmt.Printf("\n%s  seed %d  %s  attempted %d  failed %d  failed_share %g  correct %v\n",
				w.Name, seed, kind, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), res.Correct)
			for _, m := range metrics {
				v := res.Metrics[m.Name]
				fmt.Printf("  %-36s %14.4f %s\n", m.Name, v.Value, v.Unit)
			}
			if g := res.Metrics["loadgen.backlog_growth"].Value; g > 2 {
				fmt.Printf("  VOID: the generator's backlog grew %.1fx over the window; the offered rate was not sustained\n", g)
				status = 1
			}
			if !res.Correct {
				status = 1
			}
		}
	}
	return status
}

// runAA runs every workload n times per set for two sets, alternating
// which set goes first, each pair on a seed of its own. It prints each
// end-to-end metric's median, quartiles and spread per set and fails if
// set B's median is worse than set A's by more than the metric's bound.
// Set B is this build. With parent empty set A is too (the check that
// the benchmark repeats); with the parent commit's binary it is the
// parent-against-change comparison.
func runAA(n int, seconds float64, parent string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	binaries := [2]string{parent, self}
	if parent == "" {
		binaries[0] = self
	}
	status := 0
	for _, w := range spec.Workloads {
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for i := 0; i < n; i++ {
			for k := 0; k < 2; k++ {
				set := (i + k) % 2 // alternate which set runs first
				res, err := child(binaries[set], w.Name, int64(i+1), seconds, false)
				if err != nil || !res.Correct {
					fmt.Fprintf(os.Stderr, "ptbench: %s set %c seed %d: failed (%v)\n", w.Name, 'A'+set, i+1, err)
					status = 1
					continue
				}
				for name, v := range res.Metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
			}
		}
		fmt.Printf("\n%s  %d runs per set\n", w.Name, n)
		fmt.Printf("  %-18s %3s %14s %14s %14s %8s %9s\n", "metric", "set", "q1", "median", "q3", "spread", "verdict")
		for _, m := range spec.EndToEnd {
			var med [2]float64
			var rows bytes.Buffer
			for set := 0; set < 2; set++ {
				q1, q2, q3 := stats.Quartiles(sets[set][m.Name])
				med[set] = q2
				fmt.Fprintf(&rows, "  %-18s %3c %14.4f %14.4f %14.4f %7.2f%%", m.Name, 'A'+set, q1, q2, q3, 100*stats.Spread(sets[set][m.Name]))
				if set == 0 {
					rows.WriteString("\n")
				}
			}
			worse := (med[1] - med[0]) / med[0]
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = fmt.Sprintf("B worse by %.1f%% > %.0f%%", 100*worse, 100*m.Bound)
				status = 1
			}
			fmt.Printf("%s %9s\n", rows.String(), verdict)
		}
	}
	return status
}
