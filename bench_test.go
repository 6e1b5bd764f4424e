package peertrack

// One benchmark per evaluation figure (Fig. 6a, 6b, 7a, 7b, 8a, 8b)
// plus the ablation benches DESIGN.md calls out. Each iteration runs
// the complete experiment at a laptop scale and reports the figure's
// headline numbers as custom benchmark metrics, so `go test -bench=.`
// regenerates every result. cmd/peertrack-bench prints the full tables
// and supports the paper's exact scale (-scale full).

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"peertrack/internal/core"
	"peertrack/internal/experiments"
	"peertrack/internal/ids"
	"peertrack/internal/moods"
)

// benchScale keeps one iteration under a few seconds. Workers is left
// at 0, so figure sweeps fan out across GOMAXPROCS via the parallel
// runner — worker count does not affect the reported metrics (rows are
// byte-identical at any parallelism), only wall-clock.
func benchScale(b *testing.B) experiments.Scale {
	b.Helper()
	s := experiments.Tiny()
	if testing.Short() {
		s.MaxVolume = 100
	}
	return s
}

// lastFigures runs one cell figure b.N times and returns the last run's rows.
func lastFigures(b *testing.B, s experiments.Scale, name string) (f experiments.Figures) {
	for i := 0; i < b.N; i++ {
		var err error
		if f, err = experiments.RunFigures(s, name); err != nil {
			b.Fatal(err)
		}
	}
	return f
}

// lastRows runs one experiment b.N times and returns the last run's rows.
func lastRows[R any](b *testing.B, s experiments.Scale, run func(experiments.Scale) ([]R, error)) (rows []R) {
	for i := 0; i < b.N; i++ {
		var err error
		if rows, err = run(s); err != nil {
			b.Fatal(err)
		}
	}
	return rows
}

func BenchmarkFig6aIndexingDataVolume(b *testing.B) {
	s := benchScale(b)
	last := lastFigures(b, s, "6a").Fig6a
	top := last[len(last)-1]
	b.ReportMetric(top.IndividualKMsgs, "individual-kmsgs")
	b.ReportMetric(top.GroupKMsgs, "group-kmsgs")
	b.ReportMetric(top.IndividualKMsgs/top.GroupKMsgs, "saving-x")
}

func BenchmarkFig6bIndexingNetworkSize(b *testing.B) {
	s := benchScale(b)
	last := lastFigures(b, s, "6b").Fig6b
	top := last[len(last)-1]
	b.ReportMetric(top.IndividualKMsgs, "individual-kmsgs")
	b.ReportMetric(top.GroupMovedKMsgs, "group-moved-kmsgs")
	b.ReportMetric(top.GroupSingleKMsgs, "group-single-kmsgs")
}

func BenchmarkFig7aQueryNetworkSize(b *testing.B) {
	s := benchScale(b)
	last := lastFigures(b, s, "7a").Fig7a
	top := last[len(last)-1]
	b.ReportMetric(top.P2PMillis, "p2p-ms")
	b.ReportMetric(top.CentralMillis, "central-ms")
	b.ReportMetric(top.MeanHops, "hops")
}

func BenchmarkFig7bQueryDataVolume(b *testing.B) {
	s := benchScale(b)
	last := lastFigures(b, s, "7b").Fig7b
	top := last[len(last)-1]
	b.ReportMetric(top.P2PMillis, "p2p-ms")
	b.ReportMetric(top.CentralMillis, "central-ms")
}

func BenchmarkFig8aLoadBalance(b *testing.B) {
	s := benchScale(b)
	for _, sum := range lastFigures(b, s, "8a").Fig8aSummary {
		b.ReportMetric(sum.Gini, fmt.Sprintf("gini-scheme%d", sum.Scheme))
	}
}

func BenchmarkFig8bPrefixCost(b *testing.B) {
	s := benchScale(b)
	last := lastFigures(b, s, "8b").Fig8b
	top := last[len(last)-1]
	b.ReportMetric(top.Scheme1Log2, "log2msgs-scheme1")
	b.ReportMetric(top.Scheme2Log2, "log2msgs-scheme2")
	b.ReportMetric(top.Scheme3Log2, "log2msgs-scheme3")
}

func BenchmarkAblationNoTriangle(b *testing.B) {
	s := benchScale(b)
	s.Queries = 20
	rows := lastRows(b, s, experiments.AblationTriangle)
	for _, r := range rows {
		label := "off"
		if r.Delegation {
			label = "on"
		}
		b.ReportMetric(r.MaxMeanRatio, "maxmean-delegation-"+label)
	}
}

func BenchmarkAblationAdaptiveWindow(b *testing.B) {
	s := benchScale(b)
	rows := lastRows(b, s, experiments.AblationAdaptiveWindow)
	for _, r := range rows {
		label := "fixed"
		if r.Adaptive {
			label = "adaptive"
		}
		b.ReportMetric(float64(r.MaxBatch), "maxbatch-"+label)
	}
}

func BenchmarkAblationAlphaSweep(b *testing.B) {
	s := benchScale(b)
	s.Nodes = 16
	s.MaxVolume = 200
	s.Queries = 10
	rows := lastRows(b, s, experiments.AblationAlphaSweep)
	for _, r := range rows {
		b.ReportMetric(r.MaxMeanRatio, fmt.Sprintf("maxmean-alpha%.0f", r.Alpha*100))
	}
}

func BenchmarkAblationGatewayCache(b *testing.B) {
	s := benchScale(b)
	rows := lastFigures(b, s, "cache").Cache
	for _, r := range rows {
		label := "off"
		if r.Cache {
			label = "on"
		}
		b.ReportMetric(r.KMsgs, "kmsgs-cache-"+label)
	}
}

func BenchmarkIntermediateShortCircuit(b *testing.B) {
	s := benchScale(b)
	s.Queries = 40
	rows := lastRows(b, s, experiments.ExpIntermediate)
	b.ReportMetric(rows[0].MeanHops, "hops-iterative")
	b.ReportMetric(rows[1].MeanHops, "hops-routed")
	b.ReportMetric(rows[1].IntermediateRate, "intermediate-rate")
}

func BenchmarkExtensionChurnCost(b *testing.B) {
	s := benchScale(b)
	s.Nodes = 16
	s.MaxVolume = 200
	s.Queries = 10
	rows := lastRows(b, s, experiments.ExpChurn)
	for _, r := range rows {
		name := "grow"
		if r.LpAfter < r.LpBefore {
			name = "shrink"
		}
		b.ReportMetric(r.KMsgsPerRecord, "msgs-per-record-"+name)
	}
}

func BenchmarkExtensionPrediction(b *testing.B) {
	s := benchScale(b)
	rows := lastRows(b, s, experiments.ExpPrediction)
	for _, r := range rows {
		b.ReportMetric(r.TopHitRate, fmt.Sprintf("hitrate-det%.0f", r.Determinism*100))
	}
}

// BenchmarkChurn measures indexing plus query correctness across a 4x
// network growth with full re-levelling (split/re-home), the dynamics
// experiment behind Section IV-A2.
func BenchmarkChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nw, err := core.BuildNetwork(core.NetworkConfig{
			Nodes: 16,
			Seed:  int64(i + 1),
			Peer:  core.Config{Mode: core.GroupIndexing},
		})
		if err != nil {
			b.Fatal(err)
		}
		for o := 0; o < 200; o++ {
			obj := moods.ObjectID(fmt.Sprintf("churn-%d", o))
			nw.ScheduleObservation(moods.Observation{Object: obj, Node: nw.Peers()[o%16].Name(), At: time.Second})
			nw.ScheduleObservation(moods.Observation{Object: obj, Node: nw.Peers()[(o+5)%16].Name(), At: time.Minute})
		}
		nw.StartWindows(2 * time.Minute)
		nw.Run()
		if _, _, err := nw.Grow(48); err != nil {
			b.Fatal(err)
		}
		for o := 0; o < 200; o += 20 {
			obj := moods.ObjectID(fmt.Sprintf("churn-%d", o))
			if _, err := nw.Peers()[60].FullTrace(obj); err != nil {
				b.Fatalf("post-churn trace: %v", err)
			}
		}
	}
}

// BenchmarkFleetSettle is the live fleet's set-up: sixteen TCP nodes
// with default options join one bootstrap. settle_ms runs from the
// first join to both ring walks closing; rounds_to_close is the most
// stabilize rounds any node had run by then, chord_msgs_per_join the
// chord calls the whole fleet had sent, per joiner. Then the cold path
// of a first window, as the repository benchmark meets it (three rounds
// behind every node): each node resolves the 64 gateways of Lp = 6.
// hop0_lookup_hops is the mean routing hops of one resolution,
// hop0_calls every call the fleet sent meanwhile, maintenance included
// (EXPERIMENTS "Ledger — live path", Ring close).
func BenchmarkFleetSettle(b *testing.B) {
	var settle time.Duration
	var rounds, msgs, hops, calls uint64
	fleetCalls := func(nodes []*Node, prefix string) (sum uint64) {
		for _, n := range nodes {
			for _, c := range n.tel.Snapshot().Counters {
				if strings.HasPrefix(c.Name, prefix) {
					sum += uint64(c.Value)
				}
			}
		}
		return sum
	}
	for i := 0; i < b.N; i++ {
		nodes := startFleet(b, 16, NodeOptions{NetworkSize: 16})
		took, walk := joinAndSettle(b, nodes, 30*time.Second)
		settle += took
		var most uint64
		for _, n := range nodes {
			most = max(most, stabilizeRounds(n))
		}
		rounds += most
		msgs += fleetCalls(nodes, "transport.call.type.chord.")
		b.Logf("closed in %v after %d rounds; successor walk %v", took, most, walk)

		for _, n := range nodes {
			for stabilizeRounds(n) < 3 {
				time.Sleep(time.Millisecond)
			}
		}
		before, fleetHops, worst := fleetCalls(nodes, "transport.call.type."), 0, 0
		for _, n := range nodes {
			for p := 0; p < 64; p++ {
				res, err := n.peer.Node().Lookup(ids.KeyOf(ids.ID{byte(p << 2)}, 6).GatewayID())
				if err != nil {
					b.Fatal(err)
				}
				fleetHops += res.Hops
				worst = max(worst, res.Hops)
			}
		}
		hops += uint64(fleetHops)
		calls += fleetCalls(nodes, "transport.call.type.") - before
		b.Logf("hop 0: %d hops for %d resolutions, at most %d", fleetHops, 64*len(nodes), worst)
		for _, n := range nodes {
			n.Close() // before the next fleet starts; the cleanup's second Close is a no-op
		}
	}
	n := float64(b.N)
	b.ReportMetric(float64(settle.Milliseconds())/n, "settle_ms")
	b.ReportMetric(float64(rounds)/n, "rounds_to_close")
	b.ReportMetric(float64(msgs)/n/15, "chord_msgs_per_join")
	b.ReportMetric(float64(hops)/n/(16*64), "hop0_lookup_hops")
	b.ReportMetric(float64(calls)/n, "hop0_calls")
}
