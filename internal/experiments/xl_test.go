package experiments

import (
	"reflect"
	"testing"
)

// tinyXL is an XL-shaped sweep small enough for unit tests.
func tinyXL() Scale {
	return Scale{
		Nodes:        32,
		NetworkSizes: []int{8, 16, 32},
		MaxVolume:    20,
		VolumeSteps:  1,
		Queries:      10,
		Seed:         1,
	}
}

func TestXLSweepRows(t *testing.T) {
	rows := runFigure(t, tinyXL(), "xl").XL
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Objects != r.Nodes*r.ObjectsPerNode {
			t.Errorf("n=%d: Objects = %d, want %d", r.Nodes, r.Objects, r.Nodes*r.ObjectsPerNode)
		}
		if r.Observations < r.Objects {
			t.Errorf("n=%d: observations %d < objects %d", r.Nodes, r.Observations, r.Objects)
		}
		if r.IndexedEntries != r.Objects {
			t.Errorf("n=%d: indexed %d, want one record per object (%d)", r.Nodes, r.IndexedEntries, r.Objects)
		}
		if r.IndexKMsgs <= 0 || r.MeanHops <= 0 {
			t.Errorf("n=%d: degenerate row %+v", r.Nodes, r)
		}
	}
}

func TestXLSweepDeterministicAcrossWorkers(t *testing.T) {
	s1 := tinyXL()
	s1.Workers = 1
	seq := runFigure(t, s1, "xl").XL
	s4 := tinyXL()
	s4.Workers = 4
	par := runFigure(t, s4, "xl").XL
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("rows differ across worker counts:\n 1: %+v\n 4: %+v", seq, par)
	}
}

func TestXLPresetShape(t *testing.T) {
	s := XL()
	if s.Nodes < 50000 {
		t.Errorf("XL nodes = %d, want >= 50000", s.Nodes)
	}
	top := s.NetworkSizes[len(s.NetworkSizes)-1]
	if top*s.MaxVolume < 2_000_000 {
		t.Errorf("XL peak objects = %d, want >= 2M", top*s.MaxVolume)
	}
}
