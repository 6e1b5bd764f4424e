package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"peertrack/internal/core"
	"peertrack/internal/moods"
)

// Extension experiments beyond the paper's figures: the cost of the
// splitting–merging process under membership change, and the accuracy
// of the Section VII movement predictor.

// ChurnRow measures one membership transition.
type ChurnRow struct {
	Transition     string
	LpBefore       int
	LpAfter        int
	IndexRecords   int
	ReconcileKMsgs float64
	// KMsgsPerRecord is the re-levelling cost normalised by index size.
	KMsgsPerRecord float64
}

// ExpChurn loads a network, then doubles and halves its membership,
// measuring what the splitting–merging reconciliation costs relative to
// the index it moves.
func ExpChurn(s Scale) ([]ChurnRow, error) {
	s.fill()
	run, err := Load(core.NetworkConfig{Nodes: s.Nodes, Seed: s.Seed}, sectionV(s.MaxVolume, true))
	if err != nil {
		return nil, err
	}
	nw := run.Net
	records := 0
	for _, p := range nw.Peers() {
		records += p.IndexedEntries()
	}

	out := make([]ChurnRow, 0, 2)
	measure := func(name string, f func() (int, int, error)) error {
		before := nw.Stats().Snapshot()
		lpB, lpA, err := f()
		if err != nil {
			return err
		}
		delta := nw.Stats().Snapshot().Delta(before)
		k := float64(delta.Messages) / 1000
		out = append(out, ChurnRow{
			Transition:     name,
			LpBefore:       lpB,
			LpAfter:        lpA,
			IndexRecords:   records,
			ReconcileKMsgs: k,
			KMsgsPerRecord: k * 1000 / float64(records),
		})
		return nil
	}
	if err := measure(fmt.Sprintf("grow %d -> %d", s.Nodes, 2*s.Nodes), func() (int, int, error) {
		return nw.Grow(s.Nodes)
	}); err != nil {
		return nil, fmt.Errorf("churn grow: %w", err)
	}
	if err := measure(fmt.Sprintf("shrink %d -> %d", 2*s.Nodes, s.Nodes), func() (int, int, error) {
		return nw.Shrink(s.Nodes)
	}); err != nil {
		return nil, fmt.Errorf("churn shrink: %w", err)
	}

	// Correctness spot check after the round trip.
	rng := rand.New(rand.NewSource(s.Seed + 61))
	for q := 0; q < s.Queries/2; q++ {
		obj := run.Work.Movers[rng.Intn(len(run.Work.Movers))]
		if _, err := nw.Peers()[rng.Intn(nw.Size())].FullTrace(obj); err != nil {
			return nil, fmt.Errorf("post-churn trace %s: %w", obj, err)
		}
	}
	return out, nil
}

// PredictionRow reports predictor quality on one flow profile.
type PredictionRow struct {
	// Determinism is the probability mass of the dominant next hop in
	// the synthetic flow.
	Determinism float64
	// TopHitRate is the fraction of predictions naming the true next
	// node.
	TopHitRate float64
	// MeanETAErrorMin is the mean |predicted - actual| arrival error in
	// minutes.
	MeanETAErrorMin float64
	Samples         int
}

// ExpPrediction trains the transition model with flows of known
// determinism, then predicts held-out movements. A predictor that
// simply learns the dominant edge should approach the determinism
// level; ETA error should reflect the dwell spread.
func ExpPrediction(s Scale) ([]PredictionRow, error) {
	s.fill()
	out := make([]PredictionRow, 0, 3)
	for _, det := range []float64{0.6, 0.8, 0.95} {
		nw, err := core.BuildNetwork(core.NetworkConfig{
			Nodes: 16,
			Seed:  s.Seed,
			Peer:  core.Config{Mode: core.GroupIndexing},
		})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(s.Seed + int64(det*100)))
		hub := nw.Peers()[3]
		major := nw.Peers()[8]
		minor := nw.Peers()[12]
		// Training: objects pass through the hub and continue to the
		// major destination with probability det, else the minor one.
		// Dwell at the hub: 30min ± 10min.
		const train = 200
		horizon := time.Duration(0)
		for i := 0; i < train; i++ {
			obj := moods.ObjectID(fmt.Sprintf("train-%.0f-%d", det*100, i))
			at := time.Duration(i) * time.Minute
			dwell := 20*time.Minute + time.Duration(rng.Intn(20))*time.Minute
			dest := major
			if rng.Float64() >= det {
				dest = minor
			}
			nw.ScheduleObservation(moods.Observation{Object: obj, Node: hub.Name(), At: at})
			nw.ScheduleObservation(moods.Observation{Object: obj, Node: dest.Name(), At: at + dwell})
			if at+dwell > horizon {
				horizon = at + dwell
			}
		}
		// Held-out objects currently sitting at the hub.
		const test = 60
		type heldOut struct {
			obj  moods.ObjectID
			dest moods.NodeName
			at   time.Duration
		}
		var held []heldOut
		for i := 0; i < test; i++ {
			obj := moods.ObjectID(fmt.Sprintf("test-%.0f-%d", det*100, i))
			at := horizon + time.Duration(i)*time.Minute
			dwell := 20*time.Minute + time.Duration(rng.Intn(20))*time.Minute
			dest := major.Name()
			if rng.Float64() >= det {
				dest = minor.Name()
			}
			nw.ScheduleObservation(moods.Observation{Object: obj, Node: hub.Name(), At: at})
			held = append(held, heldOut{obj: obj, dest: dest, at: at + dwell})
			if at+dwell > horizon {
				horizon = at + dwell
			}
		}
		// The held-out objects' next movements are never scheduled (they
		// lie in the hypothetical future), so running to quiescence
		// trains on exactly the history and leaves the held-out set
		// sitting at the hub.
		nw.StartWindows(horizon + time.Minute)
		nw.Run()

		hits := 0
		var etaErr float64
		for _, h := range held {
			pred, err := nw.Peers()[0].PredictNext(h.obj)
			if err != nil {
				return nil, fmt.Errorf("predict %s: %w", h.obj, err)
			}
			if pred.Next == major.Name() && h.dest == major.Name() ||
				pred.Next == minor.Name() && h.dest == minor.Name() {
				hits++
			}
			diff := pred.ETA - h.at
			if diff < 0 {
				diff = -diff
			}
			etaErr += diff.Minutes()
		}
		out = append(out, PredictionRow{
			Determinism:     det,
			TopHitRate:      float64(hits) / float64(test),
			MeanETAErrorMin: etaErr / float64(test),
			Samples:         test,
		})
	}
	return out, nil
}

// VerifyRow reports a correctness audit of one configuration.
type VerifyRow struct {
	Mode         string
	Observations int
	LocateOK     int
	LocateTotal  int
	TraceOK      int
	TraceTotal   int
}

// ExpVerify is the one-command correctness audit: it runs the Section V
// workload under each indexing mode and checks random Locate and Trace
// answers against the sequential ground-truth oracle. Every row must
// come back 100 %.
func ExpVerify(s Scale) ([]VerifyRow, error) {
	s.fill()
	var out []VerifyRow
	for _, mode := range []core.Mode{core.GroupIndexing, core.IndividualIndexing} {
		run, err := Load(core.NetworkConfig{
			Nodes: s.Nodes,
			Seed:  s.Seed,
			Peer:  core.Config{Mode: mode},
		}, sectionV(s.MaxVolume, true))
		if err != nil {
			return nil, err
		}
		nw, res := run.Net, run.Work

		rng := rand.New(rand.NewSource(s.Seed + 71))
		row := VerifyRow{Mode: modeName(mode), Observations: len(res.Observations)}
		for q := 0; q < s.Queries; q++ {
			obj := res.Objects[rng.Intn(len(res.Objects))]
			at := time.Duration(rng.Int63n(int64(res.Horizon + time.Minute)))
			row.LocateTotal++
			if got, err := nw.Peers()[rng.Intn(s.Nodes)].Locate(obj, at); err == nil {
				if want, _ := nw.Oracle.Locate(obj, at); got.Node == want {
					row.LocateOK++
				}
			}
			row.TraceTotal++
			if got, err := nw.Peers()[rng.Intn(s.Nodes)].FullTrace(obj); err == nil {
				if got.Path.Equal(nw.Oracle.FullTrace(obj)) {
					row.TraceOK++
				}
			}
		}
		out = append(out, row)
	}
	return out, nil
}

func modeName(m core.Mode) string {
	if m == core.IndividualIndexing {
		return "individual"
	}
	return "group"
}

// ReplicationRow measures one replication factor: the wire cost of
// keeping k total copies of every gateway bucket and IOP repository,
// and the read availability those copies buy while factor−1 index
// primaries are crashed (factor 1 has no crash phase — it is the
// overhead baseline).
type ReplicationRow struct {
	Factor       int
	Observations int
	// IndexKMsgs / IndexMBytes are the indexing-phase wire totals.
	IndexKMsgs  float64
	IndexMBytes float64
	// MsgOverhead and ByteOverhead are the ratios against the factor-1
	// row (1.0 for the baseline itself).
	MsgOverhead  float64
	ByteOverhead float64
	// MirrorWrites counts incremental replica-write piggybacks.
	MirrorWrites uint64
	// CrashLocateOK / CrashLocates score oracle-checked reads issued
	// while factor−1 primaries are crashed, before any repair.
	CrashLocateOK int
	CrashLocates  int
	// Fallthroughs counts reads answered from a surviving replica.
	Fallthroughs uint64
}

// ExpReplication sweeps the replication factor over {1, 2, 3} on the
// standard Section V workload: what does synchronous k-successor
// mirroring cost on the indexing path, and does it deliver reads
// through primary crashes. Every row at factor ≥ 2 must answer all of
// its crash-window reads.
func ExpReplication(s Scale) ([]ReplicationRow, error) {
	s.fill()
	factors := []int{1, 2, 3}
	rows := make([]ReplicationRow, len(factors))
	err := runTasks(s.workers(), len(factors), func(i int) error {
		factor := factors[i]
		run, err := Load(core.NetworkConfig{
			Nodes: s.Nodes,
			Seed:  s.Seed,
			Peer:  core.Config{Mode: core.GroupIndexing, ReplicationFactor: factor},
		}, sectionV(s.MaxVolume, true))
		if err != nil {
			return err
		}
		nw, res := run.Net, run.Work
		nw.SyncReplicas()
		delta := nw.Stats().Snapshot() // the run's traffic and the sync's: a built network has sent nothing
		row := ReplicationRow{
			Factor:       factor,
			Observations: len(res.Observations),
			IndexKMsgs:   float64(delta.Messages) / 1000,
			IndexMBytes:  float64(delta.Bytes) / (1 << 20),
			MirrorWrites: nw.Telemetry.Counter("core.replication.mirror_writes").Value(),
		}

		if factor >= 2 {
			// Crash factor−1 primaries and read objects they indexed:
			// every read must be served by a surviving copy.
			rng := rand.New(rand.NewSource(s.Seed + int64(factor)*97))
			perm := rng.Perm(nw.Size())
			victims := nw.Peers()[:0:0]
			var victimObjs []moods.ObjectID
			for _, vi := range perm {
				if len(victims) == factor-1 {
					break
				}
				v := nw.Peers()[vi]
				objs := indexedObjects(v)
				if len(objs) == 0 {
					continue
				}
				victims = append(victims, v)
				victimObjs = append(victimObjs, objs...)
			}
			for _, v := range victims {
				nw.Transport.Kill(v.Addr())
			}
			var asker *core.Peer
			for _, p := range nw.Peers() {
				if !contains(victims, p) {
					asker = p
					break
				}
			}
			now := nw.Kernel.Now()
			for q := 0; q < s.Queries && q < len(victimObjs); q++ {
				obj := victimObjs[rng.Intn(len(victimObjs))]
				want, _ := nw.Oracle.Locate(obj, now)
				row.CrashLocates++
				if got, err := asker.Locate(obj, now); err == nil && got.Node == want {
					row.CrashLocateOK++
				}
			}
			for _, v := range victims {
				nw.Transport.Revive(v.Addr())
			}
			row.Fallthroughs = nw.Telemetry.Counter("core.replication.fallthrough_reads").Value()
			if row.CrashLocateOK != row.CrashLocates {
				return fmt.Errorf("replication factor %d: crash-window locate %d/%d",
					factor, row.CrashLocateOK, row.CrashLocates)
			}
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	base := rows[0]
	for i := range rows {
		rows[i].MsgOverhead = rows[i].IndexKMsgs / base.IndexKMsgs
		rows[i].ByteOverhead = rows[i].IndexMBytes / base.IndexMBytes
	}
	return rows, nil
}

// indexedObjects lists the objects whose index entries a peer holds.
func indexedObjects(p *core.Peer) []moods.ObjectID {
	var out []moods.ObjectID
	for _, b := range p.DumpIndex() {
		for _, e := range b.Entries {
			out = append(out, e.Object)
		}
	}
	return out
}

func contains(ps []*core.Peer, p *core.Peer) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}
