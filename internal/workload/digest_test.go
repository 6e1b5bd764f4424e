package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"peertrack/internal/moods"
)

// orgNames are the names core.NodeNameFor gives a simulated network's
// peers, which is what the figures and the sim-paper benchmark pass in.
func orgNames(n int) []moods.NodeName {
	out := make([]moods.NodeName, n)
	for i := range out {
		out[i] = moods.NodeName(fmt.Sprintf("org-%04d", i))
	}
	return out
}

// digest hashes every observation in slice order — object, node and
// capture time, each length- or width-delimited — so a reordered tie
// changes it as surely as a changed value.
func digest(res Result) string {
	h := sha256.New()
	var word [8]byte
	put := func(s string) {
		binary.BigEndian.PutUint64(word[:], uint64(len(s)))
		h.Write(word[:])
		h.Write([]byte(s))
	}
	for _, o := range res.Observations {
		put(string(o.Object))
		put(string(o.Node))
		binary.BigEndian.PutUint64(word[:], uint64(o.At))
		h.Write(word[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateDigest pins Generate's output against the revision that
// recorded these digests, where TestDeterminism only compares a run with
// itself: every figure, ablation, XL cell and the sim-paper benchmark
// replays these observations in this order, so a change to how Generate
// sizes or sorts its slices must leave all four untouched.
func TestGenerateDigest(t *testing.T) {
	cases := []struct {
		name            string
		spec            PaperSpec
		objects, movers int
		observations    int
		horizon         time.Duration
		sum             string
	}{
		{
			name:    "sim-paper 128x500 grouped",
			spec:    PaperSpec{Nodes: orgNames(128), ObjectsPerNode: 500, MoveFraction: 0.10, TraceLen: 10, Grouped: true, Seed: 1},
			objects: 64000, movers: 6400, observations: 121600,
			horizon: 550065767014,
			sum:     "3a112f1124ded3867d232d083b266b9f9364eedb5979ce1b08ab40ee890bb5da",
		},
		{
			name:    "individual movement 32x100",
			spec:    PaperSpec{Nodes: orgNames(32), ObjectsPerNode: 100, MoveFraction: 0.10, TraceLen: 10, Seed: 2},
			objects: 3200, movers: 320, observations: 6080,
			horizon: 1088625017265,
			sum:     "34bda8aecd51ad03afcf149aff0b8cf0e19746c9e812bf0005bcf03cc1412403",
		},
		{
			name:    "RealEPC 16x50 grouped",
			spec:    PaperSpec{Nodes: orgNames(16), ObjectsPerNode: 50, MoveFraction: 0.20, TraceLen: 6, Grouped: true, RealEPC: true, Seed: 3},
			objects: 800, movers: 160, observations: 1600,
			horizon: 306552060925,
			sum:     "56acd8265f57e79b543b91b60b8ff2b61b434beb5cda2d446ee429bcad8f35fa",
		},
		{
			// A 20 ns placement spread: most of the 80 placements tie, so
			// this case fails if the sort stops being stable.
			name:    "tiny 8x10, tied placements",
			spec:    PaperSpec{Nodes: orgNames(8), ObjectsPerNode: 10, MoveFraction: 0.30, TraceLen: 4, Grouped: true, Seed: 4, Spread: 20 * time.Nanosecond, HopGap: 5 * time.Second},
			objects: 80, movers: 24, observations: 152,
			horizon: 14688360617,
			sum:     "6a2215c7d8feb7aa1d068c738f9a6af5e3c059d7bd4b7e56c32fb75afb4bc898",
		},
	}
	for _, c := range cases {
		res, err := c.spec.Generate()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(res.Objects) != c.objects || len(res.Movers) != c.movers || len(res.Observations) != c.observations {
			t.Errorf("%s: %d objects, %d movers, %d observations; want %d, %d, %d",
				c.name, len(res.Objects), len(res.Movers), len(res.Observations), c.objects, c.movers, c.observations)
		}
		if res.Horizon != c.horizon {
			t.Errorf("%s: horizon %d, want %d", c.name, res.Horizon, c.horizon)
		}
		if got := digest(res); got != c.sum {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.sum)
		}
	}
}

// TestSyntheticIDIsSprintf: the ids cut from the shared builder are the
// strings fmt.Sprintf("obj-%08d", k) gave, at the widths where the
// padding ends too (TestGenerateDigest only reaches eight digits), and
// an id stays what it was when the builder grows under it.
func TestSyntheticIDIsSprintf(t *testing.T) {
	var sb strings.Builder
	ks := []int{1, 9, 10, 12345, 99_999_999, 100_000_000, 999_999_999, 1_000_000_000, 1 << 40}
	var got []moods.ObjectID
	for _, k := range ks {
		got = append(got, syntheticID(&sb, k))
	}
	for i, k := range ks {
		if want := fmt.Sprintf("obj-%08d", k); string(got[i]) != want {
			t.Errorf("id %d = %q, want %q", k, got[i], want)
		}
	}
}
