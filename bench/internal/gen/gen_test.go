package gen

import (
	"fmt"
	"testing"
)

func TestObjectsRepeatForOneSeed(t *testing.T) {
	a := fmt.Sprintf("%v", Objects(7, 200, 16, 6))
	b := fmt.Sprintf("%v", Objects(7, 200, 16, 6))
	if a != b {
		t.Fatal("same seed gave different objects")
	}
	if c := fmt.Sprintf("%v", Objects(8, 200, 16, 6)); a == c {
		t.Fatal("another seed gave the same objects")
	}
}

func TestRoutesAreDistinctAndStampsAMinuteApart(t *testing.T) {
	seen := make(map[string]bool)
	for _, o := range Objects(1, 500, 16, 16) {
		if seen[o.ID] {
			t.Fatalf("duplicate id %s", o.ID)
		}
		seen[o.ID] = true
		on := make(map[int]bool)
		for _, n := range o.Route {
			if on[n] || n < 0 || n >= 16 {
				t.Fatalf("object %d: bad route %v", o.Index, o.Route)
			}
			on[n] = true
		}
		if got := o.Stamp(3).Sub(o.Stamp(2)); got != HopGap {
			t.Fatalf("stamps %v apart", got)
		}
	}
	if got := len(Objects(1, 1, 4, 9)[0].Route); got != 4 {
		t.Errorf("route of %d hops on 4 nodes", got)
	}
}

func TestMixSharesAreExactAndRepeat(t *testing.T) {
	ops := Mix(3, 20000, 0.30, 0.55)
	var n [NumOps]int
	for _, o := range ops {
		n[o]++
	}
	if n != [NumOps]int{6000, 11000, 3000} {
		t.Errorf("counts %v, want 6000 observes, 11000 locates, 3000 traces", n)
	}
	if fmt.Sprint(ops) != fmt.Sprint(Mix(3, 20000, 0.30, 0.55)) {
		t.Error("same seed gave another order")
	}
	if fmt.Sprint(ops[:200]) == fmt.Sprint(Mix(4, 20000, 0.30, 0.55)[:200]) {
		t.Error("another seed gave the same order")
	}
}
