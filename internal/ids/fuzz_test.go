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
		inAB := Between(&x, &a, &b)
		inBA := Between(&x, &b, &a)
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

// FuzzBetween checks Cmp, Between and BetweenRightIncl against the byte
// loop of refCmp. a and b are x with a tail overwritten from offset ai
// and bi, so triples that share a prefix of any length are common.
func FuzzBetween(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint8(8), []byte{5}, uint8(16), []byte{7})
	f.Add([]byte{}, uint8(0), []byte{}, uint8(19), []byte{0xff})
	f.Fuzz(func(t *testing.T, xb []byte, ai uint8, ab []byte, bi uint8, bb []byte) {
		var x ID
		copy(x[:], xb)
		a, b := x, x
		copy(a[int(ai)%Bytes:], ab)
		copy(b[int(bi)%Bytes:], bb)
		checkAgainstRef(t, x, a, b)
	})
}
