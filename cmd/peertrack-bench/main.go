// Command peertrack-bench regenerates every figure of the paper's
// evaluation section and the repository's ablations, printing each as an
// aligned table (default) or CSV.
//
// Usage:
//
//	peertrack-bench [-fig FIG[,FIG...]|all]
//	                [-scale tiny|default|full|xl] [-csv] [-seed N] [-parallel N]
//	                [-benchcore FILE] [-ledgercheck FILE]
//	                [-cpuprofile FILE] [-memprofile FILE]
//
// -h lists the figure names. The full scale matches the paper (512
// nodes, 5000 objects/node) and takes tens of minutes plus several GB of
// memory; default runs every
// figure in seconds while preserving the trends. The xl scale pushes
// past the paper — 50k nodes, 2M tracked objects at the top of the
// sweep — and pairs with -fig xl, the throughput sweep built on the
// compact stores (see DESIGN.md §10).
//
// Figure sweeps fan their independent simulation points across
// -parallel workers (default GOMAXPROCS); every worker count produces
// byte-identical rows, so -parallel 1 is only needed to time the
// sequential runner. -benchcore measures what the ledger gates (XL
// build stats, churn convergence rounds, replication overhead) and
// writes BENCH_CORE.json instead of printing tables. -ledgercheck
// re-measures them and exits non-zero on a regression against the
// committed ledger. -cpuprofile and -memprofile write pprof
// profiles of whatever run was requested.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"peertrack/internal/experiments"
)

// allFigs is what -fig all runs, in this order; xl and telemetry run only
// when named.
var allFigs = []string{"verify", "6a", "6b", "7a", "7b", "8a", "8b", "triangle", "window", "alpha", "cache", "intermediate", "churn", "prediction", "replication"}

func main() {
	fig := flag.String("fig", "all", "comma-separated figures to regenerate: "+strings.Join(allFigs, ", ")+", xl, telemetry, or all")
	scaleName := flag.String("scale", "default", "experiment scale: tiny, default, full, or xl")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	seed := flag.Int64("seed", 1, "workload seed")
	nodes := flag.Int("nodes", 0, "override: network size for volume sweeps")
	maxvol := flag.Int("maxvol", 0, "override: largest objects-per-node value")
	steps := flag.Int("steps", 0, "override: number of volume points")
	sizes := flag.String("sizes", "", "override: comma-separated node counts for size sweeps")
	queries := flag.Int("queries", 0, "override: queries per measurement")
	parallel := flag.Int("parallel", 0, "sweep workers: 0 = GOMAXPROCS, 1 = sequential")
	benchcorePath := flag.String("benchcore", "", "write the BENCH_CORE.json ledger (XL build stats, convergence rounds, replication overhead) to this file and exit")
	ledgerPath := flag.String("ledgercheck", "", "re-measure the ledger and fail on regression vs this BENCH_CORE.json")
	byteSlack := flag.Float64("byteslack", 0.10, "ledgercheck: allowed bytes/node regression fraction")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	var scale experiments.Scale
	switch *scaleName {
	case "tiny":
		scale = experiments.Tiny()
	case "default":
		scale = experiments.Default()
	case "full":
		scale = experiments.Full()
	case "xl":
		scale = experiments.XL()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	scale.Seed = *seed
	if *nodes > 0 {
		scale.Nodes = *nodes
	}
	if *maxvol > 0 {
		scale.MaxVolume = *maxvol
	}
	if *steps > 0 {
		scale.VolumeSteps = *steps
	}
	if *queries > 0 {
		scale.Queries = *queries
	}
	if *sizes != "" {
		scale.NetworkSizes = nil
		for _, s := range strings.Split(*sizes, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v <= 0 {
				fmt.Fprintf(os.Stderr, "bad -sizes entry %q\n", s)
				os.Exit(2)
			}
			scale.NetworkSizes = append(scale.NetworkSizes, v)
		}
	}

	scale.Workers = *parallel

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	if *ledgerPath != "" {
		if err := ledgerCheck(*ledgerPath, *byteSlack); err != nil {
			fmt.Fprintf(os.Stderr, "ledger-check: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *benchcorePath != "" {
		if err := benchCore(*benchcorePath); err != nil {
			fmt.Fprintf(os.Stderr, "benchcore: %v\n", err)
			os.Exit(1)
		}
		return
	}

	figs := strings.Split(*fig, ",")
	if *fig == "all" {
		figs = allFigs
	}
	for _, f := range figs {
		if err := run(strings.TrimSpace(f), scale, *csv); err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", f, err)
			os.Exit(1)
		}
	}
}

func run(fig string, scale experiments.Scale, csv bool) error {
	start := time.Now()
	w := newTable(csv)
	switch fig {
	case "6a":
		rows, err := experiments.Fig6a(scale)
		if err != nil {
			return err
		}
		w.header("Fig 6a — indexing cost vs data volume (Nn=%d)", scale.Nodes)
		w.row("objects/node", "individual (k msgs)", "group (k msgs)")
		for _, r := range rows {
			w.row(fmt.Sprint(r.ObjectsPerNode), f1(r.IndividualKMsgs), f1(r.GroupKMsgs))
		}
	case "6b":
		rows, err := experiments.Fig6b(scale)
		if err != nil {
			return err
		}
		w.header("Fig 6b — indexing cost vs network size (%d objects/node)", scale.MaxVolume)
		w.row("nodes", "individual (k msgs)", "group, grouped movement", "group, individual movement")
		for _, r := range rows {
			w.row(fmt.Sprint(r.Nodes), f1(r.IndividualKMsgs), f1(r.GroupMovedKMsgs), f1(r.GroupSingleKMsgs))
		}
	case "7a":
		rows, err := experiments.Fig7a(scale)
		if err != nil {
			return err
		}
		w.header("Fig 7a — trace query time vs network size (%d objects/node, 5 ms/hop)", scale.MaxVolume)
		w.row("nodes", "P2P (ms)", "centralized (ms)", "mean hops")
		for _, r := range rows {
			w.row(fmt.Sprint(r.Nodes), f1(r.P2PMillis), f1(r.CentralMillis), f1(r.MeanHops))
		}
	case "7b":
		rows, err := experiments.Fig7b(scale)
		if err != nil {
			return err
		}
		w.header("Fig 7b — trace query time vs data volume (Nn=%d, 5 ms/hop)", scale.Nodes)
		w.row("objects/node", "P2P (ms)", "centralized (ms)", "mean hops")
		for _, r := range rows {
			w.row(fmt.Sprint(r.ObjectsPerNode), f1(r.P2PMillis), f1(r.CentralMillis), f1(r.MeanHops))
		}
	case "8a":
		rows, sums, err := experiments.Fig8a(scale)
		if err != nil {
			return err
		}
		w.header("Fig 8a — load balance of prefix-length schemes (Nn=%d)", scale.Nodes)
		w.row("scheme", "node %", "load %")
		for _, r := range rows {
			w.row(fmt.Sprintf("scheme %d", r.Scheme), f1(r.NodeFrac*100), f1(r.LoadFrac*100))
		}
		w.flush()
		w = newTable(csvStyle(w))
		w.header("Fig 8a summary")
		w.row("scheme", "gini", "max/mean", "idle fraction")
		for _, s := range sums {
			w.row(fmt.Sprintf("scheme %d", s.Scheme), f3(s.Gini), f1(s.MaxMeanRatio), f3(s.FractionIdle))
		}
	case "8b":
		rows, err := experiments.Fig8b(scale)
		if err != nil {
			return err
		}
		w.header("Fig 8b — indexing cost of prefix-length schemes, log2(messages)")
		w.row("nodes", "scheme 1", "scheme 2", "scheme 3")
		for _, r := range rows {
			w.row(fmt.Sprint(r.Nodes), f1(r.Scheme1Log2), f1(r.Scheme2Log2), f1(r.Scheme3Log2))
		}
	case "xl":
		rows, err := experiments.XLSweep(scale)
		if err != nil {
			return err
		}
		w.header("Scale.XL — throughput sweep past the paper's axes (%d objects/node)", scale.MaxVolume)
		w.row("nodes", "objects", "observations", "index k msgs", "indexed", "mean hops")
		for _, r := range rows {
			w.row(fmt.Sprint(r.Nodes), fmt.Sprint(r.Objects), fmt.Sprint(r.Observations),
				f1(r.IndexKMsgs), fmt.Sprint(r.IndexedEntries), f1(r.MeanHops))
		}
	case "triangle":
		rows, err := experiments.AblationTriangle(scale)
		if err != nil {
			return err
		}
		w.header("Ablation — Data Triangle delegation (scheme 1 stress)")
		w.row("delegation", "max/mean load", "gini", "k msgs", "mean query hops")
		for _, r := range rows {
			w.row(fmt.Sprint(r.Delegation), f1(r.MaxMeanRatio), f3(r.Gini), f1(r.KMsgs), f1(r.MeanHops))
		}
	case "window":
		rows, err := experiments.AblationAdaptiveWindow(scale)
		if err != nil {
			return err
		}
		w.header("Ablation — adaptive capture window under bursts")
		w.row("adaptive", "max batch", "mean batch", "p99 delay (ms)", "windows")
		for _, r := range rows {
			w.row(fmt.Sprint(r.Adaptive), fmt.Sprint(r.MaxBatch), f1(r.MeanBatch), f1(r.P99DelayMillis), fmt.Sprint(r.Windows))
		}
	case "alpha":
		rows, err := experiments.AblationAlphaSweep(scale)
		if err != nil {
			return err
		}
		w.header("Ablation — delegation fraction α")
		w.row("alpha", "k msgs", "max/mean load", "mean query hops")
		for _, r := range rows {
			w.row(f2(r.Alpha), f1(r.KMsgs), f1(r.MaxMeanRatio), f1(r.MeanHops))
		}
	case "cache":
		rows, err := experiments.AblationGatewayCache(scale)
		if err != nil {
			return err
		}
		w.header("Ablation — gateway address cache")
		w.row("cache", "k msgs")
		for _, r := range rows {
			w.row(fmt.Sprint(r.Cache), f1(r.KMsgs))
		}
	case "verify":
		rows, err := experiments.ExpVerify(scale)
		if err != nil {
			return err
		}
		w.header("Correctness audit — P2P answers vs ground-truth oracle")
		w.row("mode", "observations", "locate", "trace")
		for _, r := range rows {
			w.row(r.Mode, fmt.Sprint(r.Observations),
				fmt.Sprintf("%d/%d", r.LocateOK, r.LocateTotal),
				fmt.Sprintf("%d/%d", r.TraceOK, r.TraceTotal))
		}
	case "churn":
		rows, err := experiments.ExpChurn(scale)
		if err != nil {
			return err
		}
		w.header("Extension — splitting/merging cost under membership change")
		w.row("transition", "Lp", "index records", "reconcile k msgs", "msgs/record")
		for _, r := range rows {
			w.row(r.Transition, fmt.Sprintf("%d -> %d", r.LpBefore, r.LpAfter),
				fmt.Sprint(r.IndexRecords), f1(r.ReconcileKMsgs), f1(r.KMsgsPerRecord))
		}
	case "replication":
		rows, err := experiments.ExpReplication(scale)
		if err != nil {
			return err
		}
		w.header("Extension — k-successor replication: overhead vs crash availability")
		w.row("factor", "index k msgs", "msg overhead", "byte overhead", "mirror writes", "crash locates", "fallthroughs")
		for _, r := range rows {
			w.row(fmt.Sprint(r.Factor), f1(r.IndexKMsgs), f2(r.MsgOverhead), f2(r.ByteOverhead),
				fmt.Sprint(r.MirrorWrites), fmt.Sprintf("%d/%d", r.CrashLocateOK, r.CrashLocates),
				fmt.Sprint(r.Fallthroughs))
		}
	case "prediction":
		rows, err := experiments.ExpPrediction(scale)
		if err != nil {
			return err
		}
		w.header("Extension — movement predictor accuracy (Section VII)")
		w.row("flow determinism", "top-1 hit rate", "mean ETA error (min)", "samples")
		for _, r := range rows {
			w.row(f2(r.Determinism), f2(r.TopHitRate), f1(r.MeanETAErrorMin), fmt.Sprint(r.Samples))
		}
	case "intermediate":
		rows, err := experiments.ExpIntermediate(scale)
		if err != nil {
			return err
		}
		w.header("Experiment — intermediate-node short-circuit (Section IV-C2)")
		w.row("query mode", "mean hops", "intermediate answer rate")
		for _, r := range rows {
			w.row(r.Mode, f1(r.MeanHops), f3(r.IntermediateRate))
		}
	case "telemetry":
		snap, spans, err := experiments.TelemetryReport(scale)
		if err != nil {
			return err
		}
		w.header("Telemetry — whole-stack instrument snapshot (Nn=%d)", scale.Nodes)
		w.flush()
		fmt.Print(snap.Text())
		if len(spans) > 0 {
			fmt.Println("\nrecent query spans:")
			for _, sp := range spans[:min(8, len(spans))] {
				fmt.Println(sp.Detail())
			}
		}
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
	w.flush()
	fmt.Printf("# completed in %v\n\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// table prints either aligned columns or CSV.
type table struct {
	csv bool
	tw  *tabwriter.Writer
}

func newTable(csv bool) *table {
	return &table{csv: csv, tw: tabwriter.NewWriter(os.Stdout, 4, 4, 2, ' ', 0)}
}

func csvStyle(t *table) bool { return t.csv }

func (t *table) header(format string, args ...any) {
	fmt.Printf("## "+format+"\n", args...)
}

func (t *table) row(cells ...string) {
	if t.csv {
		fmt.Println(strings.Join(cells, ","))
		return
	}
	fmt.Fprintln(t.tw, strings.Join(cells, "\t"))
}

func (t *table) flush() {
	if !t.csv {
		t.tw.Flush()
	}
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
