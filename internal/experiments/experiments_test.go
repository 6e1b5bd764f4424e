package experiments

import (
	"testing"
)

// The experiment tests assert the paper's qualitative claims — the
// trends each figure exists to show — at Tiny scale so the whole suite
// stays fast. Absolute values are recorded by cmd/peertrack-bench.

func TestFig6aGroupScalesBetterOnVolume(t *testing.T) {
	rows := runFigure(t, Tiny(), "6a").Fig6a
	if len(rows) < 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	// At the highest volume group indexing must be clearly cheaper
	// (the gap widens further at paper scale; at low volume the paper
	// itself shows the two nearly equal).
	if last.GroupKMsgs >= last.IndividualKMsgs*0.85 {
		t.Errorf("at volume %d: group %.1fk vs individual %.1fk — not clearly cheaper",
			last.ObjectsPerNode, last.GroupKMsgs, last.IndividualKMsgs)
	}
	// ...and its cost must grow more slowly than individual's.
	gGrow := last.GroupKMsgs / max1(first.GroupKMsgs)
	iGrow := last.IndividualKMsgs / max1(first.IndividualKMsgs)
	if gGrow >= iGrow {
		t.Errorf("group grew %.2fx vs individual %.2fx — expected slower growth", gGrow, iGrow)
	}
}

func TestFig6bSeriesOrdering(t *testing.T) {
	rows := runFigure(t, Tiny(), "6b").Fig6b
	for _, r := range rows {
		if r.GroupSingleKMsgs >= r.IndividualKMsgs {
			t.Errorf("n=%d: group (individual movement) %.1fk not below individual %.1fk",
				r.Nodes, r.GroupSingleKMsgs, r.IndividualKMsgs)
		}
		if r.GroupMovedKMsgs > r.GroupSingleKMsgs*1.1 {
			t.Errorf("n=%d: grouped movement %.1fk should not exceed individual movement %.1fk",
				r.Nodes, r.GroupMovedKMsgs, r.GroupSingleKMsgs)
		}
	}
	// Individual indexing grows about linearly with network size at
	// fixed per-node volume.
	first, last := rows[0], rows[len(rows)-1]
	sizeRatio := float64(last.Nodes) / float64(first.Nodes)
	indRatio := last.IndividualKMsgs / max1(first.IndividualKMsgs)
	if indRatio < sizeRatio*0.6 {
		t.Errorf("individual indexing grew %.2fx over %.0fx nodes — expected ≈linear", indRatio, sizeRatio)
	}
	// Group indexing's absolute cost increase stays far below
	// individual's — the visual "sublinear pattern" of Fig. 6b. (The
	// paper also notes the two curves approach each other in relative
	// terms as the data-volume/network-size ratio shrinks.)
	indSlope := last.IndividualKMsgs - first.IndividualKMsgs
	grpSlope := last.GroupSingleKMsgs - first.GroupSingleKMsgs
	if grpSlope >= indSlope {
		t.Errorf("group absolute growth %.1fk not below individual %.1fk", grpSlope, indSlope)
	}
}

func TestFig7aP2PFlatCentralizedGrows(t *testing.T) {
	s := Tiny()
	s.NetworkSizes = []int{8, 32}
	s.MaxVolume = 400
	rows := runFigure(t, s, "7a").Fig7a
	small, large := rows[0], rows[len(rows)-1]
	// P2P query time is roughly flat in network size (log-factor only).
	if large.P2PMillis > small.P2PMillis*2.5 {
		t.Errorf("P2P time grew %0.1f -> %0.1f ms over 4x nodes", small.P2PMillis, large.P2PMillis)
	}
	// Centralized grows at least linearly with total data (4x nodes =
	// 4x rows).
	if large.CentralMillis < small.CentralMillis*2 {
		t.Errorf("centralized time %0.3f -> %0.3f ms did not grow with data", small.CentralMillis, large.CentralMillis)
	}
}

func TestFig7bVolumeGrowth(t *testing.T) {
	s := Tiny()
	s.Nodes = 16
	s.MaxVolume = 800
	s.VolumeSteps = 2
	rows := runFigure(t, s, "7b").Fig7b
	small, large := rows[0], rows[len(rows)-1]
	if large.P2PMillis > small.P2PMillis*2.5 {
		t.Errorf("P2P time grew %0.1f -> %0.1f ms with volume", small.P2PMillis, large.P2PMillis)
	}
	if large.CentralMillis <= small.CentralMillis {
		t.Errorf("centralized time %0.3f -> %0.3f ms did not grow with volume", small.CentralMillis, large.CentralMillis)
	}
}

func TestFig8aSchemeOrdering(t *testing.T) {
	s := Tiny()
	s.Nodes = 64
	s.MaxVolume = 300
	f := runFigure(t, s, "8a")
	rows, sums := f.Fig8a, f.Fig8aSummary
	if len(rows) != 30 {
		t.Fatalf("rows = %d, want 3 schemes x 10 deciles", len(rows))
	}
	byScheme := map[int]Fig8aSummary{}
	for _, s := range sums {
		byScheme[int(s.Scheme)] = s
	}
	// Scheme 3 balances at least as well as Scheme 2, which beats
	// Scheme 1 (paper: Scheme 1 "far away from the diagonal", Scheme 3
	// closest).
	if !(byScheme[3].Gini <= byScheme[2].Gini+0.02) {
		t.Errorf("gini: scheme3 %.3f vs scheme2 %.3f", byScheme[3].Gini, byScheme[2].Gini)
	}
	if !(byScheme[2].Gini < byScheme[1].Gini) {
		t.Errorf("gini: scheme2 %.3f vs scheme1 %.3f", byScheme[2].Gini, byScheme[1].Gini)
	}
	if !(byScheme[1].FractionIdle > byScheme[2].FractionIdle) {
		t.Errorf("idle: scheme1 %.3f vs scheme2 %.3f — scheme1 should leave more nodes idle",
			byScheme[1].FractionIdle, byScheme[2].FractionIdle)
	}
}

func TestFig8bCostOrdering(t *testing.T) {
	s := Tiny()
	s.NetworkSizes = []int{16, 64}
	s.MaxVolume = 300
	rows := runFigure(t, s, "8b").Fig8b
	for _, r := range rows {
		// Paper: "Scheme 1 is the most efficient one and Scheme 3 is
		// the worst."
		if !(r.Scheme1Log2 <= r.Scheme2Log2+0.05) {
			t.Errorf("n=%d: scheme1 %.2f above scheme2 %.2f", r.Nodes, r.Scheme1Log2, r.Scheme2Log2)
		}
		if !(r.Scheme2Log2 <= r.Scheme3Log2+0.05) {
			t.Errorf("n=%d: scheme2 %.2f above scheme3 %.2f", r.Nodes, r.Scheme2Log2, r.Scheme3Log2)
		}
	}
}

func TestAblationTriangleImprovesBalance(t *testing.T) {
	s := Tiny()
	s.Nodes = 32
	s.MaxVolume = 300
	s.Queries = 20
	rows, err := AblationTriangle(s)
	if err != nil {
		t.Fatal(err)
	}
	var off, on TriangleRow
	for _, r := range rows {
		if r.Delegation {
			on = r
		} else {
			off = r
		}
	}
	if on.MaxMeanRatio >= off.MaxMeanRatio {
		t.Errorf("delegation did not improve balance: %.2f -> %.2f", off.MaxMeanRatio, on.MaxMeanRatio)
	}
}

func TestAblationAdaptiveWindowBoundsBatches(t *testing.T) {
	rows, err := AblationAdaptiveWindow(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	var fixed, adaptive WindowRow
	for _, r := range rows {
		if r.Adaptive {
			adaptive = r
		} else {
			fixed = r
		}
	}
	if adaptive.MaxBatch > 128 {
		t.Errorf("adaptive max batch %d exceeds N_max", adaptive.MaxBatch)
	}
	if fixed.MaxBatch <= 128 {
		t.Errorf("fixed window max batch %d unexpectedly bounded", fixed.MaxBatch)
	}
}

func TestAblationGatewayCacheSavesMessages(t *testing.T) {
	s := Tiny()
	rows := runFigure(t, s, "cache").Cache
	var with, without float64
	for _, r := range rows {
		if r.Cache {
			with = r.KMsgs
		} else {
			without = r.KMsgs
		}
	}
	if with >= without {
		t.Errorf("cache did not reduce messages: with=%.1fk without=%.1fk", with, without)
	}
}

func TestExpIntermediateShortCircuits(t *testing.T) {
	s := Tiny()
	s.Queries = 40
	rows, err := ExpIntermediate(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].IntermediateRate <= 0 {
		t.Error("no routed query was ever answered by an intermediate node")
	}
}

func TestAblationAlphaSweepRuns(t *testing.T) {
	s := Tiny()
	s.Nodes = 16
	s.MaxVolume = 200
	s.Queries = 10
	rows, err := AblationAlphaSweep(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.KMsgs <= 0 {
			t.Errorf("alpha %.2f: zero indexing cost", r.Alpha)
		}
	}
}

func max1(v float64) float64 {
	if v <= 0 {
		return 1
	}
	return v
}

func TestExpChurnBounded(t *testing.T) {
	s := Tiny()
	s.Nodes = 16
	s.MaxVolume = 200
	s.Queries = 20
	rows, err := ExpChurn(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TransitionKMsgs <= 0 {
			t.Errorf("%s: no transition traffic", r.Transition)
		}
		// Re-levelling should cost a bounded number of messages per
		// index record (each record moves O(ΔLp) times plus routing).
		if r.KMsgsPerRecord > 40 {
			t.Errorf("%s: %.1f msgs/record — transition cost blew up", r.Transition, r.KMsgsPerRecord)
		}
	}
	if rows[0].LpAfter <= rows[0].LpBefore {
		t.Errorf("grow did not raise Lp: %+v", rows[0])
	}
	if rows[1].LpAfter >= rows[1].LpBefore {
		t.Errorf("shrink did not lower Lp: %+v", rows[1])
	}
}

func TestExpPredictionTracksDeterminism(t *testing.T) {
	rows, err := ExpPrediction(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The majority-vote predictor should beat chance and track the
		// flow's determinism within sampling noise.
		if r.TopHitRate < r.Determinism-0.15 {
			t.Errorf("det=%.2f: hit rate %.2f too low", r.Determinism, r.TopHitRate)
		}
		// ETA error bounded by the dwell spread (20 minutes).
		if r.MeanETAErrorMin > 15 {
			t.Errorf("det=%.2f: ETA error %.1f min", r.Determinism, r.MeanETAErrorMin)
		}
	}
	// More deterministic flows predict better.
	if rows[2].TopHitRate < rows[0].TopHitRate {
		t.Errorf("hit rate not increasing with determinism: %.2f vs %.2f",
			rows[0].TopHitRate, rows[2].TopHitRate)
	}
}

func TestExpVerifyAllPerfect(t *testing.T) {
	s := Tiny()
	s.Nodes = 16
	s.MaxVolume = 100
	s.Queries = 30
	rows, err := ExpVerify(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want one per indexing mode", len(rows))
	}
	for _, r := range rows {
		if r.LocateOK != r.LocateTotal {
			t.Errorf("%s: locate %d/%d", r.Mode, r.LocateOK, r.LocateTotal)
		}
		if r.TraceOK != r.TraceTotal {
			t.Errorf("%s: trace %d/%d", r.Mode, r.TraceOK, r.TraceTotal)
		}
	}
}

// TestExpReplicationOverheadAndFailover runs the replication sweep at 16
// nodes, 150 objects a node and 25 queries. Besides the failover bar
// (every crash-window read answered) it pins factor 2's message overhead
// at 1.9145486415425064 with float-formatting slack only: the count is
// deterministic, and a mirror write must stay one piggybacked message
// per primary write.
func TestExpReplicationOverheadAndFailover(t *testing.T) {
	s := Tiny()
	s.Nodes = 16
	s.MaxVolume = 150
	s.Queries = 25
	const factor2Overhead = 1.9145486415425064
	rows, err := ExpReplication(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Factor != 1 || rows[0].MirrorWrites != 0 {
		t.Errorf("baseline row not factor-1/no-mirrors: %+v", rows[0])
	}
	for i, r := range rows[1:] {
		if r.MirrorWrites == 0 {
			t.Errorf("factor %d: no mirror writes", r.Factor)
		}
		// Message overhead must grow with the factor but stay well below
		// a full per-copy duplication of total traffic (mirrors ride the
		// primary write; queries and stabilization are not replicated).
		if r.MsgOverhead <= rows[i].MsgOverhead || r.MsgOverhead > float64(r.Factor) {
			t.Errorf("factor %d: msg overhead %.2f out of band", r.Factor, r.MsgOverhead)
		}
		if r.Factor == 2 && r.MsgOverhead > factor2Overhead*1.0001 {
			t.Errorf("factor 2: msg overhead %v, want ≤ %v", r.MsgOverhead, factor2Overhead)
		}
		if r.CrashLocates == 0 || r.CrashLocateOK != r.CrashLocates {
			t.Errorf("factor %d: crash-window locate %d/%d", r.Factor, r.CrashLocateOK, r.CrashLocates)
		}
		if r.Fallthroughs == 0 {
			t.Errorf("factor %d: no replica fallthroughs", r.Factor)
		}
	}
}
