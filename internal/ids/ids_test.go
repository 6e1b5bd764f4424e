package ids

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromUint64RoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 2, 255, 256, 1 << 32, 1<<64 - 1}
	for _, v := range cases {
		if got := FromUint64(v).Uint64(); got != v {
			t.Errorf("FromUint64(%d).Uint64() = %d", v, got)
		}
	}
}

func TestHashDeterministic(t *testing.T) {
	a := HashString("urn:epc:id:sgtin:0614141.812345.6789")
	b := HashString("urn:epc:id:sgtin:0614141.812345.6789")
	if a != b {
		t.Fatal("Hash is not deterministic")
	}
	c := HashString("urn:epc:id:sgtin:0614141.812345.6790")
	if a == c {
		t.Fatal("distinct inputs hashed to same id")
	}
}

func TestCmp(t *testing.T) {
	a, b := FromUint64(5), FromUint64(9)
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Error("Cmp ordering wrong")
	}
	if !a.Less(b) || b.Less(a) {
		t.Error("Less wrong")
	}
}

// refCmp is Cmp as a byte-at-a-time loop, the reference the word
// compare is checked against; refBetween is Between on top of it.
func refCmp(a, b ID) int {
	for i := 0; i < Bytes; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

func refBetween(x, a, b ID) bool {
	switch ca := refCmp(a, b); {
	case ca < 0:
		return refCmp(a, x) < 0 && refCmp(x, b) < 0
	case ca > 0:
		return refCmp(a, x) < 0 || refCmp(x, b) < 0
	default:
		return refCmp(x, a) != 0
	}
}

// checkAgainstRef fails t when Cmp, Between or BetweenRightIncl gives
// another answer than the reference on any ordering of x, a and b.
func checkAgainstRef(t *testing.T, x, a, b ID) {
	t.Helper()
	for _, p := range [][3]ID{{x, a, b}, {x, b, a}, {a, x, b}, {a, b, x}, {b, x, a}, {b, a, x}} {
		if got, want := p[0].Cmp(p[1]), refCmp(p[0], p[1]); got != want {
			t.Fatalf("Cmp(%s, %s) = %d, want %d", p[0], p[1], got, want)
		}
		if got, want := Between(&p[0], &p[1], &p[2]), refBetween(p[0], p[1], p[2]); got != want {
			t.Fatalf("Between(%s, %s, %s) = %v, want %v", p[0], p[1], p[2], got, want)
		}
		want := p[0] == p[2] || refBetween(p[0], p[1], p[2])
		if got := BetweenRightIncl(&p[0], &p[1], &p[2]); got != want {
			t.Fatalf("BetweenRightIncl(%s, %s, %s) = %v, want %v", p[0], p[1], p[2], got, want)
		}
	}
}

// TestCmpBetweenMatchReference checks every triple drawn from a set of
// constructed identifiers: the zero id, the largest, and a base id with
// one byte stepped up or down at either end of each compared word, so
// pairs agree on their first 8 or 16 bytes and differ only in the last
// word. Triples with repeats are the a == b, x == a and x == b cases;
// orderings with a > b are the wrap-around ones.
func TestCmpBetweenMatchReference(t *testing.T) {
	var top ID
	for i := range top {
		top[i] = 0xff
	}
	base := HashString("base")
	set := []ID{{}, top, base}
	for _, i := range []int{0, 7, 8, 15, 16, 19} {
		up, down := base, base
		up[i]++
		down[i]--
		set = append(set, up, down)
	}
	for _, x := range set {
		for _, a := range set {
			for _, b := range set {
				checkAgainstRef(t, x, a, b)
			}
		}
	}
}

func TestAddSub(t *testing.T) {
	a, b := FromUint64(1<<63), FromUint64(1<<63)
	sum := a.Add(b) // 2^64: carries out of low 8 bytes
	if sum.Uint64() != 0 {
		t.Errorf("low bits of 2^63+2^63 = %d, want 0", sum.Uint64())
	}
	if sum[Bytes-9] != 1 {
		t.Errorf("carry byte = %d, want 1", sum[Bytes-9])
	}
	if diff := sum.Sub(b); diff != a {
		t.Errorf("Sub did not invert Add")
	}
	// wraparound: 0 - 1 = 2^160 - 1 (all 0xFF)
	neg := (ID{}).Sub(FromUint64(1))
	for i, by := range neg {
		if by != 0xFF {
			t.Fatalf("byte %d of -1 = %#x, want 0xFF", i, by)
		}
	}
}

func TestAddPow2(t *testing.T) {
	base := FromUint64(10)
	if got := base.AddPow2(0).Uint64(); got != 11 {
		t.Errorf("10 + 2^0 = %d", got)
	}
	if got := base.AddPow2(10).Uint64(); got != 10+1024 {
		t.Errorf("10 + 2^10 = %d", got)
	}
	top := (ID{}).AddPow2(Bits - 1)
	if top[0] != 0x80 {
		t.Errorf("2^159 top byte = %#x, want 0x80", top[0])
	}
	// 2^159 + 2^159 wraps to 0.
	if sum := top.Add(top); !sum.IsZero() {
		t.Errorf("2^159*2 = %v, want 0", sum)
	}
}

func TestBetween(t *testing.T) {
	a, b := FromUint64(10), FromUint64(20)
	tests := []struct {
		x    uint64
		want bool
	}{
		{10, false}, {11, true}, {19, true}, {20, false}, {5, false}, {25, false},
	}
	for _, tc := range tests {
		if x := FromUint64(tc.x); Between(&x, &a, &b) != tc.want {
			t.Errorf("Between(%d, 10, 20) = %v", tc.x, !tc.want)
		}
	}
	// wrapped interval (20, 10)
	wrapTests := []struct {
		x    uint64
		want bool
	}{
		{25, true}, {5, true}, {15, false}, {20, false}, {10, false}, {0, true},
	}
	for _, tc := range wrapTests {
		if x := FromUint64(tc.x); Between(&x, &b, &a) != tc.want {
			t.Errorf("Between(%d, 20, 10) = %v", tc.x, !tc.want)
		}
	}
	// degenerate interval (a, a) = whole ring minus a
	if Between(&a, &a, &a) {
		t.Error("Between(a, a, a) should be false")
	}
	if !Between(&b, &a, &a) {
		t.Error("Between(b, a, a) should be true")
	}
}

func TestBetweenInclusive(t *testing.T) {
	a, b := FromUint64(10), FromUint64(20)
	if !BetweenRightIncl(&b, &a, &b) {
		t.Error("(a,b] must contain b")
	}
	if BetweenRightIncl(&a, &a, &b) {
		t.Error("(a,b] must not contain a")
	}
}

func TestBit(t *testing.T) {
	var id ID
	id[0] = 0x80
	id[Bytes-1] = 0x01
	if id.Bit(0) != 1 {
		t.Error("MSB should be 1")
	}
	if id.Bit(1) != 0 {
		t.Error("bit 1 should be 0")
	}
	if id.Bit(Bits-1) != 1 {
		t.Error("LSB should be 1")
	}
}

func TestLeadingZeros(t *testing.T) {
	if n := (ID{}).LeadingZeros(); n != Bits {
		t.Errorf("zero id has %d leading zeros", n)
	}
	if n := FromUint64(1).LeadingZeros(); n != Bits-1 {
		t.Errorf("id 1 has %d leading zeros, want %d", n, Bits-1)
	}
	var id ID
	id[0] = 0x40
	if n := id.LeadingZeros(); n != 1 {
		t.Errorf("0x40... has %d leading zeros, want 1", n)
	}
}

func randomID(r *rand.Rand) ID {
	var id ID
	r.Read(id[:])
	return id
}

// Property: Add and Sub are inverses.
func TestQuickAddSubInverse(t *testing.T) {
	f := func(a, b [Bytes]byte) bool {
		x, y := ID(a), ID(b)
		return x.Add(y).Sub(y) == x && x.Sub(y).Add(y) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Distance(a,b) + Distance(b,a) == 0 (mod 2^160) unless a==b.
func TestQuickDistanceAntisymmetric(t *testing.T) {
	f := func(a, b [Bytes]byte) bool {
		x, y := ID(a), ID(b)
		sum := Distance(x, y).Add(Distance(y, x))
		return sum.IsZero()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: for distinct a, b, x — exactly one of x ∈ (a,b), x ∈ (b,a),
// x ∈ {a,b} holds.
func TestQuickBetweenPartition(t *testing.T) {
	f := func(a, b, x [Bytes]byte) bool {
		A, B, X := ID(a), ID(b), ID(x)
		if A == B {
			return true // degenerate handled elsewhere
		}
		inAB := Between(&X, &A, &B)
		inBA := Between(&X, &B, &A)
		onEnd := X == A || X == B
		count := 0
		for _, v := range []bool{inAB, inBA, onEnd} {
			if v {
				count++
			}
		}
		return count == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// bitString renders the first n bits of id one Bit call at a time: the
// string form's oracle, independent of the packed encoding.
func bitString(id ID, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '0' + byte(id.Bit(i))
	}
	return string(b)
}

// panics reports whether f panics.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// Property: prefix round-trip — KeyOf(id, n).Matches(id) for every n a
// key holds; a longer n is refused.
func TestQuickPrefixMatches(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		id := randomID(r)
		n := r.Intn(MaxKeyLen + 1)
		k := KeyOf(id, n)
		if !k.Matches(id) {
			t.Fatalf("KeyOf(id, %d) does not match id", n)
		}
		if k.Len() != n {
			t.Fatalf("prefix length %d, want %d", k.Len(), n)
		}
		if long := MaxKeyLen + 1 + r.Intn(Bits-MaxKeyLen); !panics(func() { KeyOf(id, long) }) {
			t.Fatalf("KeyOf(id, %d) did not panic", long)
		}
	}
}

// Property: parse/String round-trip for prefixes.
func TestQuickPrefixStringRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		id := randomID(r)
		n := r.Intn(33)
		k := KeyOf(id, n)
		if s := k.String(); s != bitString(id, n) {
			t.Fatalf("KeyOf(id, %d).String() = %q, want %q", n, s, bitString(id, n))
		}
		if q := mustParse(t, k.String()); q != k {
			t.Fatalf("round trip failed: %v != %v", k, q)
		}
	}
}

func TestPrefixChildParent(t *testing.T) {
	p := mustParse(t, "010")
	c0, c1 := p.Child(0), p.Child(1)
	if c0.String() != "0100" || c1.String() != "0101" {
		t.Fatalf("children = %q, %q", c0.String(), c1.String())
	}
	if c0.Parent() != p || c1.Parent() != p {
		t.Error("Parent(Child(p)) != p")
	}
	if deepest := KeyOf(ID{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, MaxKeyLen); !panics(func() { deepest.Child(0) }) {
		t.Error("Child of a MaxKeyLen prefix did not panic")
	}
	if !panics(func() { PrefixKey(0).Parent() }) {
		t.Error("Parent of the empty prefix did not panic")
	}
}

func TestPrefixNextBit(t *testing.T) {
	id := ID{0x50}    // 0101 followed by zeros
	p := KeyOf(id, 2) // "01"
	if p.NextBit(id) != 0 {
		t.Error("bit after \"01\" in 0101... should be 0")
	}
	p3 := KeyOf(id, 3) // "010"
	if p3.NextBit(id) != 1 {
		t.Error("bit after \"010\" in 0101... should be 1")
	}
}

func TestPrefixGatewayIDDistinct(t *testing.T) {
	// Prefixes "0" and "00" must map to different gateways even though
	// the underlying bits are identical — the string form disambiguates.
	a := mustParse(t, "0").GatewayID()
	b := mustParse(t, "00").GatewayID()
	if a == b {
		t.Error("gateway ids for \"0\" and \"00\" collide")
	}
}

func TestPrefixOfPanicsOutOfRange(t *testing.T) {
	if !panics(func() { KeyOf(ID{}, -1) }) {
		t.Error("KeyOf(-1) did not panic")
	}
}
