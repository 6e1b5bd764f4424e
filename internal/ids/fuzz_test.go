package ids

import "testing"

// FuzzRingArithmetic checks Add/Sub inversion and Between partitioning
// on arbitrary byte patterns.
func FuzzRingArithmetic(f *testing.F) {
	f.Add([]byte{1}, []byte{2}, []byte{3})
	f.Fuzz(func(t *testing.T, ab, bb, xb []byte) {
		var a, b, x ID
		copy(a[:], ab)
		copy(b[:], bb)
		copy(x[:], xb)
		if a.Add(b).Sub(b) != a {
			t.Fatal("Add/Sub not inverse")
		}
		if a == b {
			return
		}
		inAB := Between(x, a, b)
		inBA := Between(x, b, a)
		onEnd := x == a || x == b
		n := 0
		for _, v := range []bool{inAB, inBA, onEnd} {
			if v {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("Between partition violated: %v %v %v", inAB, inBA, onEnd)
		}
	})
}
