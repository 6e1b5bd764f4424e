// Command peertrack-bench regenerates every figure of the paper's
// evaluation section and the repository's ablations, printing each as an
// aligned table (default) or CSV, and reports on one simulation cell.
//
// Usage:
//
//	peertrack-bench [-fig FIG[,FIG...]|all]
//	                [-scale tiny|default|full|xl] [-csv] [-seed N] [-parallel N]
//	                [-cpuprofile FILE] [-memprofile FILE]
//	peertrack-bench -fig cell [-nodes N] [-maxvol OBJECTS] [-grouped]
//	                [-individual] [-scheme 1|2|3] [-replicas R] [-bytype]
//
// -h lists the figure names. Figs. 6a–8b, attribution, cache and xl are
// read off simulation cells: a -fig list measures each distinct cell
// once, reported by the first of them. -fig cell measures the one cell
// the flags describe (-maxvol objects a node), with -bytype its indexing
// round trips by request type. The full scale matches the paper (512
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
// sequential runner. -cpuprofile and -memprofile write pprof profiles
// of whatever run was requested.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"peertrack/internal/core"
	"peertrack/internal/experiments"
)

// allFigs is what -fig all runs, in this order; xl and telemetry run only
// when named.
var allFigs = []string{"verify", "6a", "6b", "7a", "7b", "8a", "8b", "attribution", "triangle", "window", "alpha", "cache", "intermediate", "churn", "prediction", "replication"}

func main() {
	fig := flag.String("fig", "all", "comma-separated figures to regenerate: "+strings.Join(allFigs, ", ")+", xl, telemetry, cell, or all")
	scaleName := flag.String("scale", "default", "experiment scale: tiny, default, full, or xl")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	seed := flag.Int64("seed", 1, "workload seed")
	nodes := flag.Int("nodes", 0, "override: network size for volume sweeps")
	maxvol := flag.Int("maxvol", 0, "override: largest objects-per-node value")
	steps := flag.Int("steps", 0, "override: number of volume points")
	sizes := flag.String("sizes", "", "override: comma-separated node counts for size sweeps")
	queries := flag.Int("queries", 0, "override: queries per measurement")
	parallel := flag.Int("parallel", 0, "sweep workers: 0 = GOMAXPROCS, 1 = sequential")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	individual := flag.Bool("individual", false, "-fig cell: index every arrival alone (Section III), not by group")
	scheme := flag.Int("scheme", 2, "-fig cell: prefix-length scheme 1..3")
	grouped := flag.Bool("grouped", false, "-fig cell: objects move in groups")
	replicas := flag.Int("replicas", 0, "-fig cell: gateway index replicas (0 = off)")
	byType := flag.Bool("bytype", false, "-fig cell: print the indexing round trips by request type")
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

	figs := strings.Split(*fig, ",")
	if *fig == "all" {
		figs = allFigs
	}
	for i := range figs {
		figs[i] = strings.TrimSpace(figs[i])
	}
	rn := &runner{scale: scale, csv: *csv, names: figs, cell: experiments.Cell{
		Nodes: scale.Nodes, PerNode: scale.MaxVolume, Grouped: *grouped,
		Scheme: core.Scheme(*scheme), Replicas: *replicas, Seed: scale.Seed,
	}, byType: *byType}
	if *individual {
		rn.cell.Mode = core.IndividualIndexing
	}
	if !slices.Contains(figs, "cell") {
		flag.Visit(func(f *flag.Flag) {
			if strings.HasPrefix(f.Usage, "-fig cell:") {
				fmt.Fprintf(os.Stderr, "-%s is read only by -fig cell\n", f.Name)
				os.Exit(2)
			}
		})
	}
	for _, f := range figs {
		if err := rn.run(f); err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", f, err)
			os.Exit(1)
		}
	}
}

// runner prints the figures of one -fig list. The figures read off
// cells are measured together, at the first of them in the list.
type runner struct {
	scale    experiments.Scale
	csv      bool
	names    []string
	measured *experiments.Figures
	cell     experiments.Cell // what -fig cell measures
	byType   bool
}

func (rn *runner) run(fig string) error {
	start := time.Now()
	scale := rn.scale
	w := newTable(rn.csv)
	var figs *experiments.Figures
	switch fig {
	case "6a", "6b", "7a", "7b", "8a", "8b", "attribution", "cache", "xl":
		if rn.measured == nil {
			f, err := experiments.RunFigures(rn.scale, rn.names...)
			if err != nil {
				return err
			}
			rn.measured = &f
		}
		figs = rn.measured
	}
	switch fig {
	case "6a":
		w.header("Fig 6a — indexing cost vs data volume (Nn=%d)", scale.Nodes)
		w.row("objects/node", "individual (k msgs)", "group (k msgs)")
		for _, r := range figs.Fig6a {
			w.row(fmt.Sprint(r.ObjectsPerNode), f1(r.IndividualKMsgs), f1(r.GroupKMsgs))
		}
	case "6b":
		w.header("Fig 6b — indexing cost vs network size (%d objects/node)", scale.MaxVolume)
		w.row("nodes", "individual (k msgs)", "group, grouped movement", "group, individual movement")
		for _, r := range figs.Fig6b {
			w.row(fmt.Sprint(r.Nodes), f1(r.IndividualKMsgs), f1(r.GroupMovedKMsgs), f1(r.GroupSingleKMsgs))
		}
	case "7a":
		w.header("Fig 7a — trace query time vs network size (%d objects/node, 5 ms/hop)", scale.MaxVolume)
		w.row("nodes", "P2P (ms)", "centralized (ms)", "mean hops")
		for _, r := range figs.Fig7a {
			w.row(fmt.Sprint(r.Nodes), f1(r.P2PMillis), f1(r.CentralMillis), f1(r.MeanHops))
		}
	case "7b":
		w.header("Fig 7b — trace query time vs data volume (Nn=%d, 5 ms/hop)", scale.Nodes)
		w.row("objects/node", "P2P (ms)", "centralized (ms)", "mean hops")
		for _, r := range figs.Fig7b {
			w.row(fmt.Sprint(r.ObjectsPerNode), f1(r.P2PMillis), f1(r.CentralMillis), f1(r.MeanHops))
		}
	case "8a":
		w.header("Fig 8a — load balance of prefix-length schemes (Nn=%d)", scale.Nodes)
		w.row("scheme", "node %", "load %")
		for _, r := range figs.Fig8a {
			w.row(fmt.Sprintf("scheme %d", r.Scheme), f1(r.NodeFrac*100), f1(r.LoadFrac*100))
		}
		w.flush()
		w = newTable(rn.csv)
		w.header("Fig 8a summary")
		w.row("scheme", "gini", "max/mean", "idle fraction")
		for _, s := range figs.Fig8aSummary {
			w.row(fmt.Sprintf("scheme %d", s.Scheme), f3(s.Gini), f1(s.MaxMeanRatio), f3(s.FractionIdle))
		}
	case "8b":
		w.header("Fig 8b — indexing cost of prefix-length schemes, log2(messages)")
		w.row("nodes", "scheme 1", "scheme 2", "scheme 3")
		for _, r := range figs.Fig8b {
			w.row(fmt.Sprint(r.Nodes), f1(r.Scheme1Log2), f1(r.Scheme2Log2), f1(r.Scheme3Log2))
		}
	case "attribution":
		w.header("Fig 6a attribution — grouping or the gateway cache (Nn=%d)", scale.Nodes)
		w.row("objects/node", "individual (k msgs)", "group (k msgs)", "group cache-off (k msgs)", "observations/group msg", "lookups saved (k)")
		for _, r := range figs.Attribution {
			w.row(fmt.Sprint(r.ObjectsPerNode), f1(r.IndividualKMsgs), f1(r.GroupKMsgs), f1(r.GroupNoCacheKMsgs), f2(r.ObsPerGroupMsg), f1(r.LookupsSavedK))
		}
	case "cell":
		if err := rn.report(w); err != nil {
			return err
		}
	case "xl":
		w.header("Scale.XL — throughput sweep past the paper's axes (%d objects/node)", scale.MaxVolume)
		w.row("nodes", "objects", "observations", "index k msgs", "indexed", "mean hops")
		for _, r := range figs.XL {
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
		w.header("Ablation — gateway address cache")
		w.row("cache", "k msgs")
		for _, r := range figs.Cache {
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

// report prints what Measure returns for the -fig cell flags.
func (rn *runner) report(w *table) error {
	c := rn.cell
	res, err := experiments.Measure(c, rn.scale.Queries, true)
	if err != nil {
		return err
	}
	w.header("Cell — %d nodes, %d objects/node, individual indexing %v, scheme %d, %d replicas, grouped movement %v",
		c.Nodes, c.PerNode, c.Mode == core.IndividualIndexing, c.Scheme, c.Replicas, c.Grouped)
	w.row("objects", fmt.Sprint(res.Objects))
	w.row("movers", fmt.Sprint(res.Movers))
	w.row("observations", fmt.Sprint(res.Observations))
	w.row("Lp", fmt.Sprint(res.Lp))
	w.row("messages", fmt.Sprint(res.Indexing.Messages))
	w.row("MB modelled", f1(float64(res.Indexing.Bytes)/1e6))
	w.row("msgs/observation", f2(float64(res.Indexing.Messages)/float64(res.Observations)))
	w.row("index load gini", f3(res.Gini))
	w.row("index load max/mean", f2(res.MaxMeanRatio))
	w.row("idle nodes %", f1(100*res.FractionIdle))
	w.row("trace query hops", f1(res.Query.MeanHops))
	w.row("trace query P2P ms (5 ms/hop)", f1(res.Query.P2PMillis))
	w.row("trace query centralized ms", f1(res.Query.CentralMillis))
	if rn.byType {
		w.flush()
		w = newTable(rn.csv)
		w.header("Cell — indexing round trips by request type")
		types := make([]string, 0, len(res.ByType))
		for t := range res.ByType {
			types = append(types, t)
		}
		sort.Strings(types)
		for _, t := range types {
			w.row(t, fmt.Sprint(res.ByType[t]))
		}
	}
	w.flush()
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
