package ids

import (
	"strings"
	"testing"
)

// FuzzParsePrefix drives ParseKey, the one parser of the string form
// (a snapshot file's bucket keys go through it): a string it accepts
// renders back unchanged and packs a valid key that hashes without
// panicking, and a string longer than MaxKeyLen digits is refused.
func FuzzParsePrefix(f *testing.F) {
	f.Add("0101")
	f.Add("")
	f.Add("2")
	f.Add("@individual")
	f.Add(strings.Repeat("0", MaxKeyLen+4))
	f.Fuzz(func(t *testing.T, s string) {
		k, err := ParseKey(s)
		if err != nil {
			return
		}
		if k.String() != s {
			t.Fatalf("prefix round trip: %q -> %q", s, k.String())
		}
		if !k.Valid() {
			t.Fatalf("ParseKey(%q) = %#x, not a valid key", s, uint64(k))
		}
		if k == NoPrefixKey {
			return
		}
		if len(s) > MaxKeyLen || k.Len() != len(s) {
			t.Fatalf("ParseKey(%q) accepted length %d", s, k.Len())
		}
		_ = k.GatewayID()
	})
}

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
