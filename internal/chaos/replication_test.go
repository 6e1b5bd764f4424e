package chaos

import (
	"reflect"
	"testing"
)

// The paired scenario is the harness's reason to exist: the same crash
// schedule must be answerable at factor 2 and provably lossy at factor
// 1 — otherwise the replicated run's perfect score proves nothing.
func TestReplicationPairDiscriminates(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		pair := ReplicationConfig{}.Run(seed)
		if pair.Failed() {
			for _, v := range pair.Violations {
				t.Errorf("seed %d: %s", seed, v)
			}
			continue
		}
		r, b := pair.Replicated, pair.Baseline
		if r.WindowOK != r.WindowLocates || r.WindowTraceOK != r.WindowTraces {
			t.Errorf("seed %d: replicated run lost reads: locate %d/%d trace %d/%d",
				seed, r.WindowOK, r.WindowLocates, r.WindowTraceOK, r.WindowTraces)
		}
		if b.WindowOK >= b.WindowLocates {
			t.Errorf("seed %d: baseline lost no locates (%d/%d)", seed, b.WindowOK, b.WindowLocates)
		}
		if r.Fallthroughs == 0 {
			t.Errorf("seed %d: no read ever fell through to a replica", seed)
		}
	}
}

// Factor 3 tolerates two simultaneous primary crashes: 2 of any 3
// consecutive ring copies can die and one always survives.
func TestReplicationFactorThreeSurvivesTwoCrashes(t *testing.T) {
	rep := ReplicationConfig{Factor: 3}.Run(5).Replicated
	if rep.Failed() {
		for _, v := range rep.Violations {
			t.Errorf("%s", v)
		}
	}
	if rep.WindowOK != rep.WindowLocates || rep.WindowLocates == 0 {
		t.Errorf("window locates %d/%d", rep.WindowOK, rep.WindowLocates)
	}
	if rep.Fallthroughs == 0 {
		t.Error("no read ever fell through to a replica")
	}
}

func TestReplicationDeterministic(t *testing.T) {
	cfg := ReplicationConfig{}
	a := cfg.Run(11)
	b := cfg.Run(11)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config, different reports:\n%s\n%s", a.Lines(), b.Lines())
	}
}

func TestReplicationSweepWorkerIndependent(t *testing.T) {
	run := ReplicationConfig{Nodes: 12}.Run
	serial := Sweep(run, 20, 3, 1)
	parallel := Sweep(run, 20, 3, 3)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("sweep differs by worker count:\n%v\n%v", serial.Verdicts, parallel.Verdicts)
	}
	for _, p := range serial.Failures {
		for _, v := range p.Violations {
			t.Errorf("seed %d: %s", p.Seed, v)
		}
	}
	var fallthroughs uint64
	for _, p := range serial.Verdicts {
		fallthroughs += p.Replicated.Fallthroughs
	}
	if fallthroughs == 0 {
		t.Error("sweep exercised no replica fallthroughs")
	}
}

// The generated-schedule runner must also hold its checkpoints (full
// invariant suite + replica agreement) with replication enabled — the
// repair round at each boundary re-converges mirrors across crashes,
// partitions, and membership changes.
func TestGeneratedSchedulesCleanWithReplication(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, factor := range []int{2, 3} {
			rep := Config{Replication: factor}.Run(seed)
			if rep.Failed() {
				t.Errorf("seed %d factor %d: %s", seed, factor, rep)
			}
		}
	}
}
