// Command peertrack-sim runs one ad-hoc simulation with every knob
// exposed, printing indexing cost, load balance, and query statistics —
// the tool for exploring configurations outside the paper's fixed
// experiment grid.
//
// Example:
//
//	peertrack-sim -nodes 256 -objects 2000 -move 0.1 -tracelen 10 \
//	              -mode group -scheme 2 -grouped -queries 200
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"peertrack/internal/core"
	"peertrack/internal/experiments"
	"peertrack/internal/metrics"
	"peertrack/internal/workload"
)

func main() {
	nodes := flag.Int("nodes", 64, "network size Nn")
	objects := flag.Int("objects", 500, "objects generated per node")
	move := flag.Float64("move", 0.10, "fraction of objects that move")
	traceLen := flag.Int("tracelen", 10, "nodes visited per moving object")
	mode := flag.String("mode", "group", "indexing mode: group or individual")
	scheme := flag.Int("scheme", 2, "prefix-length scheme 1..3")
	grouped := flag.Bool("grouped", false, "objects move in groups")
	queries := flag.Int("queries", 100, "trace queries to sample")
	seed := flag.Int64("seed", 1, "random seed")
	hopLatency := flag.Duration("hop", 5*time.Millisecond, "modelled per-hop latency")
	overlayKind := flag.String("overlay", "chord", "DHT overlay: chord or kademlia")
	replicas := flag.Int("replicas", 0, "gateway index replicas (0 = off)")
	byType := flag.Bool("bytype", false, "print the message-type breakdown")
	flag.Parse()

	cfg := core.Config{Mode: core.GroupIndexing, ReplicationFactor: *replicas + 1}
	if *mode == "individual" {
		cfg.Mode = core.IndividualIndexing
	} else if *mode != "group" {
		log.Fatalf("unknown mode %q", *mode)
	}

	tl := min(*traceLen, *nodes)
	start := time.Now()
	run, err := experiments.Load(core.NetworkConfig{
		Nodes:      *nodes,
		Seed:       *seed,
		Scheme:     core.Scheme(*scheme),
		Peer:       cfg,
		HopLatency: *hopLatency,
		Overlay:    core.OverlayKind(*overlayKind),
	}, workload.PaperSpec{ObjectsPerNode: *objects, MoveFraction: *move, TraceLen: tl, Grouped: *grouped})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	nw, res, snap := run.Net, run.Work, run.Indexing
	loads := nw.IndexLoads()

	var hops, qtime metrics.Summary
	rng := rand.New(rand.NewSource(*seed + 13))
	pool := res.Movers
	if len(pool) == 0 {
		pool = res.Objects
	}
	for q := 0; q < *queries; q++ {
		obj := pool[rng.Intn(len(pool))]
		r, err := nw.Peers()[rng.Intn(*nodes)].FullTrace(obj)
		if err != nil {
			log.Fatalf("query %s: %v", obj, err)
		}
		hops.Add(float64(r.Hops))
		qtime.Add(float64(nw.QueryTime(r.Hops)) / float64(time.Millisecond))
	}

	w := tabwriter.NewWriter(os.Stdout, 4, 4, 2, ' ', 0)
	fmt.Fprintf(w, "nodes\t%d\n", *nodes)
	fmt.Fprintf(w, "objects\t%d (%d movers, trace length %d)\n", len(res.Objects), len(res.Movers), tl)
	fmt.Fprintf(w, "observations\t%d\n", len(res.Observations))
	fmt.Fprintf(w, "indexing mode\t%s (scheme %d, Lp=%d, overlay %s)\n", *mode, *scheme, nw.PM.Lp(), *overlayKind)
	fmt.Fprintf(w, "messages\t%d (%.1f MB modelled)\n", snap.Messages, float64(snap.Bytes)/1e6)
	fmt.Fprintf(w, "msgs/observation\t%.2f\n", float64(snap.Messages)/float64(len(res.Observations)))
	fmt.Fprintf(w, "index load gini\t%.3f\n", metrics.Gini(loads))
	fmt.Fprintf(w, "index load max/mean\t%.2f\n", metrics.MaxMeanRatio(loads))
	fmt.Fprintf(w, "idle nodes\t%.1f%%\n", 100*metrics.FractionIdle(loads))
	fmt.Fprintf(w, "trace query hops\tmean %.1f, min %.0f, max %.0f\n", hops.Mean(), hops.Min(), hops.Max())
	fmt.Fprintf(w, "trace query time\tmean %.1f ms (at %v/hop)\n", qtime.Mean(), *hopLatency)
	fmt.Fprintf(w, "wall time\t%v (build, generate and run)\n", elapsed.Round(time.Millisecond))
	w.Flush()

	if *byType {
		fmt.Println("\nmessage breakdown (round trips by request type):")
		byT := nw.Stats().ByType()
		types := make([]string, 0, len(byT))
		for t := range byT {
			types = append(types, t)
		}
		sort.Slice(types, func(i, j int) bool {
			if byT[types[i]] != byT[types[j]] {
				return byT[types[i]] > byT[types[j]]
			}
			return types[i] < types[j] // equal counts: by name, not by map order
		})
		tw := tabwriter.NewWriter(os.Stdout, 4, 4, 2, ' ', 0)
		for _, t := range types {
			fmt.Fprintf(tw, "  %s\t%d\n", t, byT[t])
		}
		tw.Flush()
	}
}
