package experiments

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"peertrack/internal/core"
)

// The golden tests define "same behaviour" for refactors underneath the
// figures: every Fig. 6–8 row at Tiny scale, at full float precision,
// must match the committed CSV byte for byte. A PR that changes a
// figure on purpose regenerates them with
//
//	go test ./internal/experiments -run Golden -update
//
// and says why in its description.
var update = flag.Bool("update", false, "rewrite testdata/golden_tiny/*.csv from this tree")

func goldenScale() Scale {
	s := Tiny()
	s.Workers = 1
	return s
}

func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func csvLine(cells ...string) string { return strings.Join(cells, ",") + "\n" }

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden_tiny", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from the golden baseline\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestGoldenFig6a(t *testing.T) {
	rows, err := Fig6a(goldenScale())
	if err != nil {
		t.Fatal(err)
	}
	out := csvLine("objects_per_node", "individual_kmsgs", "group_kmsgs")
	for _, r := range rows {
		out += csvLine(fmt.Sprint(r.ObjectsPerNode), g(r.IndividualKMsgs), g(r.GroupKMsgs))
	}
	checkGolden(t, "fig6a.csv", out)
}

func TestGoldenFig6b(t *testing.T) {
	rows, err := Fig6b(goldenScale())
	if err != nil {
		t.Fatal(err)
	}
	out := csvLine("nodes", "individual_kmsgs", "group_moved_kmsgs", "group_single_kmsgs")
	for _, r := range rows {
		out += csvLine(fmt.Sprint(r.Nodes), g(r.IndividualKMsgs), g(r.GroupMovedKMsgs), g(r.GroupSingleKMsgs))
	}
	checkGolden(t, "fig6b.csv", out)
}

func fig7CSV(rows []Fig7Row) string {
	out := csvLine("nodes", "objects_per_node", "p2p_ms", "central_ms", "mean_hops")
	for _, r := range rows {
		out += csvLine(fmt.Sprint(r.Nodes), fmt.Sprint(r.ObjectsPerNode), g(r.P2PMillis), g(r.CentralMillis), g(r.MeanHops))
	}
	return out
}

func TestGoldenFig7a(t *testing.T) {
	rows, err := Fig7a(goldenScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig7a.csv", fig7CSV(rows))
}

func TestGoldenFig7b(t *testing.T) {
	rows, err := Fig7b(goldenScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig7b.csv", fig7CSV(rows))
}

func TestGoldenFig8a(t *testing.T) {
	rows, sums, err := Fig8a(goldenScale())
	if err != nil {
		t.Fatal(err)
	}
	out := csvLine("scheme", "node_frac", "load_frac")
	for _, r := range rows {
		out += csvLine(fmt.Sprint(int(r.Scheme)), g(r.NodeFrac), g(r.LoadFrac))
	}
	out += csvLine("scheme", "gini", "max_mean_ratio", "fraction_idle")
	for _, s := range sums {
		out += csvLine(fmt.Sprint(int(s.Scheme)), g(s.Gini), g(s.MaxMeanRatio), g(s.FractionIdle))
	}
	checkGolden(t, "fig8a.csv", out)
}

func TestGoldenFig8b(t *testing.T) {
	rows, err := Fig8b(goldenScale())
	if err != nil {
		t.Fatal(err)
	}
	out := csvLine("nodes", "scheme1_log2", "scheme2_log2", "scheme3_log2")
	for _, r := range rows {
		out += csvLine(fmt.Sprint(r.Nodes), g(r.Scheme1Log2), g(r.Scheme2Log2), g(r.Scheme3Log2))
	}
	checkGolden(t, "fig8b.csv", out)
}

// The nine ablation and extension tables of `peertrack-bench -fig all`,
// every field of every row: a wall-clock timer or a process-global rand
// in any of them moves a byte here.
func TestGoldenAblations(t *testing.T) {
	s := goldenScale()
	var out strings.Builder
	for _, table := range []struct {
		name string
		run  func(Scale) (any, error)
	}{
		{"verify", func(s Scale) (any, error) { return ExpVerify(s) }},
		{"triangle", func(s Scale) (any, error) { return AblationTriangle(s) }},
		{"window", func(s Scale) (any, error) { return AblationAdaptiveWindow(s) }},
		{"alpha", func(s Scale) (any, error) { return AblationAlphaSweep(s) }},
		{"cache", func(s Scale) (any, error) { return AblationGatewayCache(s) }},
		{"intermediate", func(s Scale) (any, error) { return ExpIntermediate(s) }},
		{"churn", func(s Scale) (any, error) { return ExpChurn(s) }},
		{"prediction", func(s Scale) (any, error) { return ExpPrediction(s) }},
		{"replication", func(s Scale) (any, error) { return ExpReplication(s) }},
	} {
		rows, err := table.run(s)
		if err != nil {
			t.Fatalf("%s: %v", table.name, err)
		}
		out.WriteString("# " + table.name + "\n")
		v := reflect.ValueOf(rows)
		typ := v.Type().Elem()
		cells := make([]string, typ.NumField())
		for i := range cells {
			cells[i] = typ.Field(i).Name
		}
		out.WriteString(csvLine(cells...))
		for r := 0; r < v.Len(); r++ {
			for i := range cells {
				f := v.Index(r).Field(i)
				if f.Kind() == reflect.Float64 {
					cells[i] = g(f.Float())
				} else {
					cells[i] = fmt.Sprint(f.Interface())
				}
			}
			out.WriteString(csvLine(cells...))
		}
	}
	checkGolden(t, "ablations.csv", out.String())
}

// The rendered text of every span the tracer retains after the
// telemetry demo run: index arrivals, locates and traces, each with its
// steps. It pins what the span call sites in core say, byte for byte —
// a swapped verb or argument at any of them shows here.
func TestGoldenSpans(t *testing.T) {
	_, spans, err := TelemetryReport(goldenScale())
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, sp := range spans {
		out.WriteString(sp.Detail())
		out.WriteByte('\n')
	}
	checkGolden(t, "spans.txt", out.String())
}

// The message sequence of every arrival path: the Section V workload
// and a query sweep over both indexing modes and 0–2 replicas, read as
// Stats.ByType() plus the message, byte and query-hop totals. It is
// `peertrack-sim -bytype` in the tree — individual indexing with
// replicas is pinned by no other golden.
func TestGoldenByType(t *testing.T) {
	s := goldenScale()
	s.MaxVolume = 40
	var out strings.Builder
	for _, mode := range []core.Mode{core.GroupIndexing, core.IndividualIndexing} {
		for replicas := 0; replicas <= 2; replicas++ {
			run, err := Load(core.NetworkConfig{
				Nodes: s.Nodes,
				Seed:  s.Seed,
				Peer:  core.Config{Mode: mode, ReplicationFactor: replicas + 1},
			}, sectionV(s.MaxVolume, true))
			if err != nil {
				t.Fatal(err)
			}
			nw, res := run.Net, run.Work
			rng := rand.New(rand.NewSource(s.Seed + 13))
			hops := 0
			for q := 0; q < s.Queries; q++ {
				obj := res.Movers[rng.Intn(len(res.Movers))]
				at := time.Duration(rng.Int63n(int64(res.Horizon)))
				l, err := nw.Peers()[rng.Intn(s.Nodes)].Locate(obj, at)
				if err != nil {
					t.Fatal(err)
				}
				tr, err := nw.Peers()[rng.Intn(s.Nodes)].FullTrace(obj)
				if err != nil {
					t.Fatal(err)
				}
				hops += l.Hops + tr.Hops
			}
			snap := nw.Stats().Snapshot()
			fmt.Fprintf(&out, "chord %s replicas=%d messages=%d bytes=%d query_hops=%d\n",
				modeName(mode), replicas, snap.Messages, snap.Bytes, hops)
			byType := nw.Stats().ByType()
			types := make([]string, 0, len(byType))
			for typ := range byType {
				types = append(types, typ)
			}
			sort.Strings(types)
			for _, typ := range types {
				fmt.Fprintf(&out, "  %s %d\n", typ, byType[typ])
			}
		}
	}
	checkGolden(t, "bytype.txt", out.String())
}
