package workload

import (
	"runtime"
	"testing"
	"unsafe"

	"peertrack/internal/moods"
)

// simPaperSpec is the sim-paper benchmark's workload (bench/internal/work):
// 128 nodes, 500 objects each, a tenth of them moving in groups along ten
// nodes — 121 600 observations.
func simPaperSpec() PaperSpec {
	return PaperSpec{Nodes: orgNames(128), ObjectsPerNode: 500, MoveFraction: 0.10, TraceLen: 10, Grouped: true, Seed: 1}
}

// BenchmarkPaperGenerate is what every figure point, ablation and
// sim-paper repetition pays before its network exists.
func BenchmarkPaperGenerate(b *testing.B) {
	spec := simPaperSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Generate(); err != nil {
			b.Fatal(err)
		}
	}
}

// raceDetector reports that the tests were built with -race (race_test.go).
var raceDetector bool

// TestGenerateAllocatesWhatItKeeps pins Generate's allocated bytes to at
// most 1.32 times the bytes its result retains: the three slices are
// sized from the spec, not grown by append (which allocated five times
// what it kept), the ids are cut from one slab, and the sort moves the
// observations in place. Its parts, as shares of the 6.76 MB kept at
// this spec: the kept bytes themselves, 1.00 (4.86 MB of 40-byte
// observations, 1.13 MB of id headers and 0.77 MB of id bytes), and
// the sort's 16-byte key beside each observation, 1.95 MB or 0.29 —
// 1.29 measured, and the ceiling that plus 2.5 %. A gather into a
// second slab adds 0.72. The ratio rose from 1.23 when an observation
// was 56 bytes: what is kept shrank, the sort's keys did not.
func TestGenerateAllocatesWhatItKeeps(t *testing.T) {
	if raceDetector {
		t.Skip("under -race the runtime allocates on Generate's behalf (1.60x measured); the pin is for the product build")
	}
	spec := simPaperSpec()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := spec.Generate()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	retained := uintptr(len(res.Observations))*unsafe.Sizeof(moods.Observation{}) +
		uintptr(len(res.Objects)+len(res.Movers))*unsafe.Sizeof(moods.ObjectID(""))
	for _, o := range res.Objects {
		retained += uintptr(len(o)) // one id string each, shared by its observations
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %d bytes, retained %d (%.2fx)", allocated, retained, float64(allocated)/float64(retained))
	if float64(allocated) > 1.32*float64(retained) {
		t.Errorf("Generate allocated %d bytes for %d retained (%.2fx), want ≤ 1.32x", allocated, retained, float64(allocated)/float64(retained))
	}
}
