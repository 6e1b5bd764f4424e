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
// most 1.25 times the bytes its result retains: the three slices are
// sized from the spec, not grown by append (which allocated five times
// what it kept), the ids are cut from one slab, and the sort moves the
// observations in place — its 16-byte key beside each 56-byte record is
// 0.22 of the 1.23 measured; a gather into a second slab adds 0.78.
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
	if float64(allocated) > 1.25*float64(retained) {
		t.Errorf("Generate allocated %d bytes for %d retained (%.2fx), want ≤ 1.25x", allocated, retained, float64(allocated)/float64(retained))
	}
}
