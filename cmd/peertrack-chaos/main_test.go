package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"peertrack/internal/chaos"
	"peertrack/internal/invariants"
)

// runCLI runs the command on args and returns its exit status, stdout
// and stderr.
func runCLI(args ...string) (int, string, string) {
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestUnreadFlagsRefused: a flag the chosen profile does not read exits
// 2 and is named, instead of being silently ignored; the same flag under
// a profile that reads it is accepted.
func TestUnreadFlagsRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-profile", "churn10x", "-seeds", "2", "-nodes", "50", "-replication", "3"},
		{"-profile", "churn10x", "-seed", "1", "-epochs", "3"},
		{"-profile", "churn10x", "-drop", "0.3"},
		{"-profile", "repl", "-seeds", "2", "-epochs", "6"},
		{"-profile", "repl", "-drop", "0.3"},
		{"-profile", "safe", "-seeds", "5", "-drop", "0.5"},
	} {
		code, stdout, stderr := runCLI(args...)
		if code != 2 || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and nothing run", args, code, stdout)
		}
		for _, a := range args[2:] {
			if strings.HasPrefix(a, "-") && !strings.HasPrefix(a, "-seed") && !strings.Contains(stderr, a) {
				t.Errorf("%v: stderr %q does not name %s", args, stderr, a)
			}
		}
	}
	for _, args := range [][]string{
		{"-profile", "lossy", "-seeds", "1", "-drop", "0.3", "-nodes", "8", "-epochs", "2"},
		{"-profile", "both", "-seeds", "1", "-drop", "0.3"},
		{"-profile", "safe", "-seeds", "1", "-nodes", "8", "-epochs", "2", "-replication", "2"},
		{"-profile", "repl", "-seeds", "1", "-nodes", "12", "-replication", "3"},
	} {
		if code, _, stderr := runCLI(args...); code != 0 {
			t.Errorf("%v: exit %d (%s), want 0", args, code, stderr)
		}
	}
}

// TestSweepVerdictsMatchSingleSeeds: -v prints the verdicts the sweep
// stored rather than running each seed again, so every stored verdict
// must equal a single-seed run of its seed, value for value and line
// for line, at any worker count.
func TestSweepVerdictsMatchSingleSeeds(t *testing.T) {
	const seeds = 3
	sameVerdicts(t, "safe", chaos.Config{Profile: chaos.ProfileSafe}.Run, seeds)
	sameVerdicts(t, "lossy", chaos.Config{Profile: chaos.ProfileLossy}.Run, seeds)
	sameVerdicts(t, "churn10x", chaos.RunChurnPair, seeds)
	sameVerdicts(t, "repl", chaos.ReplicationConfig{}.Run, seeds)

	for _, profile := range []string{"safe", "lossy", "churn10x", "repl"} {
		code, out, stderr := runCLI("-profile", profile, "-seeds", fmt.Sprint(seeds), "-v", "-workers", "2")
		if code != 0 {
			t.Fatalf("%s sweep: exit %d: %s", profile, code, stderr)
		}
		// Compared without indentation: -v indents each run's first line,
		// a single seed prints it flush.
		var got, want []string
		for _, l := range strings.Split(out, "\n")[1:] { // below the summary
			got = append(got, strings.TrimLeft(l, " "))
		}
		for s := 1; s <= seeds; s++ {
			code, one, stderr := runCLI("-profile", profile, "-seed", fmt.Sprint(s))
			if code != 0 {
				t.Fatalf("%s -seed %d: exit %d: %s", profile, s, code, stderr)
			}
			for _, l := range strings.Split(one, "\n") {
				if strings.HasPrefix(l, "telemetry:") {
					break
				}
				want = append(want, strings.TrimLeft(l, " "))
			}
		}
		if len(got) < len(want) || !reflect.DeepEqual(got[:len(want)], want) {
			t.Errorf("%s: -v lines differ from single-seed runs\n--- sweep -v ---\n%s\n--- single seeds ---\n%s",
				profile, out, strings.Join(want, "\n"))
		}
	}
}

func sameVerdicts[V chaos.Verdict](t *testing.T, name string, run func(int64) V, n int) {
	t.Helper()
	sw := chaos.Sweep(run, 1, n, 2)
	for i, v := range sw.Verdicts {
		if one := run(int64(i) + 1); !reflect.DeepEqual(v, one) {
			t.Errorf("%s seed %d: stored verdict differs from a single run:\n%v\n%v", name, i+1, v.Lines(), one.Lines())
		}
	}
}

// TestFailingPairOutput pins what a failing paired profile prints: its
// runs (a sweep's summary and, under -v, every pair's two runs), the
// telemetry line, and only then the pair's missed expectations — under
// a sweep headed by the first failing seed. It exits 1.
func TestFailingPairOutput(t *testing.T) {
	planted := invariants.Violation{Invariant: "churn-pair", Detail: "planted"}
	defer func(orig func(int64) chaos.ChurnPairReport) { churnPair = orig }(churnPair)
	churnPair = func(seed int64) chaos.ChurnPairReport {
		p := chaos.RunChurnPair(seed)
		if seed >= 2 {
			p.Violations = append(p.Violations, planted)
		}
		return p
	}

	code, out, _ := runCLI("-profile", "churn10x", "-seed", "2")
	p := churnPair(2)
	want := fmt.Sprintf("%s\n%s\ntelemetry: %d counters, %d histograms, %d spans\n  %s\n",
		p.ChordOnly, p.Gossip, len(p.Telemetry.Counters), len(p.Telemetry.Histograms), p.Telemetry.Spans, planted)
	if code != 1 || out != want {
		t.Errorf("-seed 2: exit %d, output\n%s\nwant exit 1, output\n%s", code, out, want)
	}

	code, out, _ = runCLI("-profile", "churn10x", "-seeds", "3", "-v")
	summary, rest, _ := strings.Cut(out, "\n")
	var runs strings.Builder
	for seed := int64(1); seed <= 3; seed++ {
		for _, l := range churnPair(seed).Lines() {
			runs.WriteString("  " + l + "\n")
		}
	}
	if code != 1 || !strings.HasPrefix(summary, "3 churn pairs: 2 failed, ") {
		t.Fatalf("-seeds 3 -v: exit %d, summary %q", code, summary)
	}
	runLines, tail, _ := strings.Cut(rest, "telemetry: ")
	if runLines != runs.String() {
		t.Errorf("-v lines\n%s\nwant\n%s", runLines, runs.String())
	}
	if _, tail, _ = strings.Cut(tail, "\n"); tail != "\nfirst failing pair (seed 2):\n  "+planted.String()+"\n" {
		t.Errorf("below the telemetry line: %q", tail)
	}
}
