package chaos

import (
	"reflect"
	"testing"
)

// TestChurn10xDiscriminates is the tentpole regression: the checked-in
// 10×-churn profile must fail reconvergence under Chord stabilization
// alone and pass it with the gossip membership layer, on every seed.
// The gossip-assisted runs of seeds 1–5 reconverge within 6 maintenance
// rounds of a fault round's crashes, and 6 is the bound: the runs are
// seeded simulations, so a seventh round is a protocol regression, not
// noise.
func TestChurn10xDiscriminates(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		p := RunChurnPair(seed)
		if p.Failed() {
			for _, v := range p.Violations {
				t.Errorf("seed %d: %s", seed, v)
			}
			continue
		}
		if got := p.ChordOnly.RoundsRun; got != 1 {
			t.Errorf("seed %d: chord-only survived %d fault rounds, want failure in round 1", seed, got)
		}
		if mc := p.Gossip.MaxConverge(); mc > 6 {
			t.Errorf("seed %d: gossip convergence takes %d rounds, want ≤ 6", seed, mc)
		}
	}
}

// TestChurnDeterministic pins the determinism contract: same config →
// byte-identical report, including telemetry and convergence latencies.
func TestChurnDeterministic(t *testing.T) {
	for _, gossipOn := range []bool{false, true} {
		cfg := ChurnConfig{Seed: 11, Gossip: gossipOn}
		a := RunChurn(cfg)
		b := RunChurn(cfg)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("gossip=%v: same seed, different reports:\n%s\n%s", gossipOn, a, b)
		}
	}
	a := RunChurn(ChurnConfig{Seed: 11, Gossip: true})
	c := RunChurn(ChurnConfig{Seed: 12, Gossip: true})
	if reflect.DeepEqual(a.Converge, c.Converge) && reflect.DeepEqual(a.Telemetry, c.Telemetry) {
		t.Error("different seeds produced identical gossip reports")
	}
}

// TestChurnSweepWorkerIndependent pins the sweep's aggregation: the
// report must be identical at any worker count.
func TestChurnSweepWorkerIndependent(t *testing.T) {
	n := 4
	if testing.Short() {
		n = 2
	}
	seq := Sweep(RunChurnPair, 21, n, 1)
	par := Sweep(RunChurnPair, 21, n, 4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("sweep differs across worker counts:\n%v\n%v", seq.Verdicts, par.Verdicts)
	}
	for _, f := range seq.Failures {
		t.Errorf("pair failed: %v", f.Violations)
	}
	for _, p := range seq.Verdicts {
		if p.Gossip.MaxConverge() <= 0 {
			t.Errorf("seed %d recorded no convergence latency: %s", p.Seed, p.Gossip)
		}
	}
}

// TestChurnGossipTelemetry sanity-checks that the gossip layer actually
// carried the recovery: deaths were declared and samples repaired
// successor lists.
func TestChurnGossipTelemetry(t *testing.T) {
	rep := RunChurn(ChurnConfig{Seed: 31, Gossip: true})
	if rep.Failed() {
		t.Fatalf("gossip churn failed: %s", rep)
	}
	counters := map[string]uint64{}
	for _, c := range rep.Telemetry.Counters {
		counters[c.Name] = c.Value
	}
	if counters["gossip.deaths"] == 0 {
		t.Error("no gossip deaths declared despite permanent crashes")
	}
	if counters["chord.sample.repairs"] == 0 {
		t.Error("no successor-list repairs from gossip samples")
	}
	if counters["gossip.rounds"] == 0 {
		t.Error("no gossip rounds ran")
	}
}
