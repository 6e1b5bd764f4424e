package experiments

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// cellFigures are the figures RunFigures reads off cells.
var cellFigures = []string{"6a", "6b", "7a", "7b", "8a", "8b", "attribution", "cache"}

func runFigure(t testing.TB, s Scale, name string) Figures {
	t.Helper()
	f, err := RunFigures(s, name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestParallelRowsMatchSequential is the determinism gate for the figure
// runner: the six paper figures, the attribution table and the cache
// ablation, measured together through the deduplicated path on one
// worker and on four, must give the rows each figure gives run alone.
func TestParallelRowsMatchSequential(t *testing.T) {
	var alone Figures
	all := reflect.ValueOf(&alone).Elem()
	for _, name := range cellFigures {
		for i, v := 0, reflect.ValueOf(runFigure(t, Tiny(), name)); i < v.NumField(); i++ {
			if !v.Field(i).IsNil() {
				all.Field(i).Set(v.Field(i))
			}
		}
	}
	for _, workers := range []int{1, 4} {
		s := Tiny()
		s.Workers = workers
		together, err := RunFigures(s, cellFigures...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(together, alone) {
			t.Errorf("workers=%d: figures measured together diverged from each run alone:\ntogether %+v\nalone    %+v", workers, together, alone)
		}
	}
}

// A six-figure list at Tiny names 30 cells — 6a 4, 6b 9, 7a 3, 7b 2,
// 8a 3, 8b 9 — of which 17 are distinct: 7a's and 7b's are 6b's and
// 6a's group cells, and the scheme-2 cells of 8a and 8b are 6a's and
// 6b's. Each distinct cell is loaded exactly once.
func TestFigureListLoadsEachCellOnce(t *testing.T) {
	var mu sync.Mutex
	loads := map[Cell]int{}
	measureHook = func(c Cell) {
		mu.Lock()
		loads[c]++
		mu.Unlock()
	}
	defer func() { measureHook = nil }()
	s := Tiny()
	s.Workers = 2
	if _, err := RunFigures(s, cellFigures[:6]...); err != nil {
		t.Fatal(err)
	}
	if len(loads) != 17 {
		t.Errorf("loaded %d distinct cells, want 17", len(loads))
	}
	for c, n := range loads {
		if n != 1 {
			t.Errorf("cell %+v loaded %d times", c, n)
		}
	}
}

func TestRunTasksCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		const n = 37
		var hits [n]atomic.Int32
		if err := runTasks(workers, n, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("workers=%d: task %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestRunTasksReturnsLowestIndexError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	err := runTasks(8, 20, func(i int) error {
		switch i {
		case 3:
			return errLow
		case 11:
			return errHigh
		}
		return nil
	})
	if err != errLow {
		t.Errorf("err = %v, want the lowest-index error", err)
	}
}
