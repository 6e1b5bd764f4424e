package ids

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// mustParse is the prefix key a binary literal such as "0110" names,
// built by Child.
func mustParse(t testing.TB, s string) PrefixKey {
	t.Helper()
	var k PrefixKey
	for _, c := range s {
		if c != '0' && c != '1' {
			t.Fatalf("%q is not a binary literal", s)
		}
		k = k.Child(int(c - '0'))
	}
	return k
}

func TestPrefixKeyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		id := HashString(string(rune('a' + i%26)))
		id[0] = byte(rng.Intn(256))
		n := rng.Intn(MaxKeyLen + 1)
		k := KeyOf(id, n)
		if k.Len() != n {
			t.Fatalf("Len: got %d want %d", k.Len(), n)
		}
		if k.String() != bitString(id, n) {
			t.Fatalf("String: got %q want %q", k.String(), bitString(id, n))
		}
		if back := mustParse(t, k.String()); back != k {
			t.Fatalf("the key %q names is %x, want %x", k.String(), back, k)
		}
		if !k.Valid() {
			t.Fatalf("KeyOf(%v, %d) = %x is not valid", id, n, k)
		}
	}
}

func TestPrefixKeyZeroAndSentinel(t *testing.T) {
	if k := mustParse(t, ""); k != 0 {
		t.Fatalf("empty prefix key = %x, want 0", k)
	}
	if NoPrefixKey.Len() <= MaxKeyLen {
		t.Fatalf("sentinel length %d must not be a prefix length (> %d)", NoPrefixKey.Len(), MaxKeyLen)
	}
	if !NoPrefixKey.Valid() || NoPrefixKey.String() != "@individual" {
		t.Fatalf("sentinel: valid %v, string %q", NoPrefixKey.Valid(), NoPrefixKey.String())
	}
	// The sentinel must sort after every valid key.
	deepest := KeyOf(ID{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, MaxKeyLen)
	if !(deepest < NoPrefixKey) {
		t.Fatalf("sentinel %x does not sort last (deepest valid key %x)", NoPrefixKey, deepest)
	}
	// One form: a bit past the length, or a length past MaxKeyLen, is
	// not a key.
	for _, k := range []PrefixKey{KeyOf(ID{0xA0}, 3) | 1<<40, 1 << 8, 1 << 63, MaxKeyLen + 1, NoPrefixKey - 1} {
		if k.Valid() {
			t.Errorf("%#x is valid, want not", uint64(k))
		}
	}
}

// TestPrefixKeyOrderMatchesString is the determinism contract: sorted
// sweeps over packed keys must visit buckets in the same order as the
// binary-string keys, or reconciliation and dump output would change
// between layouts.
func TestPrefixKeyOrderMatchesString(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	keys := make([]PrefixKey, 0, 501)
	for i := 0; i < 500; i++ {
		var id ID
		for b := 0; b < 7; b++ {
			id[b] = byte(rng.Intn(256))
		}
		keys = append(keys, KeyOf(id, rng.Intn(MaxKeyLen+1)))
	}
	keys = append(keys, NoPrefixKey)
	numeric := append([]PrefixKey(nil), keys...)
	sort.Slice(numeric, func(i, j int) bool { return numeric[i] < numeric[j] })
	lexical := append([]PrefixKey(nil), keys...)
	sort.Slice(lexical, func(i, j int) bool { return lexical[i].String() < lexical[j].String() })
	for i := range numeric {
		if numeric[i] != lexical[i] {
			t.Fatalf("order diverges at %d: numeric %q lexical %q", i, numeric[i], lexical[i])
		}
	}
}

func TestPrefixKeyTooLongPanics(t *testing.T) {
	if !panics(func() { KeyOf(HashString("x"), MaxKeyLen+1) }) {
		t.Error("KeyOf beyond MaxKeyLen did not panic")
	}
	if !panics(func() { mustParse(t, strings.Repeat("1", MaxKeyLen+1)) }) {
		t.Error("Child beyond MaxKeyLen did not panic")
	}
}

// TestPrefixKeyZeroAllocs pins the packed key's whole point: cutting a
// key out of an id, reading its length and walking the triangle are
// word operations, executed once per observation, and none of them
// allocates.
func TestPrefixKeyZeroAllocs(t *testing.T) {
	id := HashString("obj-17")
	var key PrefixKey
	var n int
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"KeyOf", func() { key = KeyOf(id, 11) }},
		{"PrefixKey.Len", func() { n = key.Len() }},
		{"PrefixKey.Child", func() { key = key.Child(1).Parent() }},
		{"PrefixKey.Matches", func() { _ = key.Matches(id) }},
	} {
		if avg := testing.AllocsPerRun(200, c.op); avg != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", c.name, avg)
		}
	}
	if key != KeyOf(id, 11) || n != 11 {
		t.Errorf("round trip = %v/%d, want %v/11", key, n, KeyOf(id, 11))
	}
}

// TestGatewayIDMatchesStringFormula: GatewayID writes its input into a
// stack buffer; the digest must stay that of "group:" + the binary
// string, for every length a key holds and for random bits, or every
// group's gateway moves. A longer length is refused.
func TestGatewayIDMatchesStringFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	check := func(id ID, n int) {
		t.Helper()
		if got, want := KeyOf(id, n).GatewayID(), HashString("group:"+bitString(id, n)); got != want {
			t.Fatalf("GatewayID(%s) = %v, want %v", bitString(id, n), got, want)
		}
	}
	for n := 0; n <= MaxKeyLen; n++ {
		check(randomID(rng), n)
	}
	for i := 0; i < 1000; i++ {
		check(randomID(rng), rng.Intn(MaxKeyLen+1))
	}
	for n := MaxKeyLen + 1; n <= 64; n++ {
		if !panics(func() { KeyOf(randomID(rng), n) }) {
			t.Fatalf("KeyOf(id, %d) did not panic", n)
		}
	}
}

// TestGatewayIDZeroAllocs: a gateway-cache miss hashes the prefix
// without touching the heap.
func TestGatewayIDZeroAllocs(t *testing.T) {
	k := KeyOf(HashString("obj-17"), 11)
	var id ID
	if avg := testing.AllocsPerRun(200, func() { id = k.GatewayID() }); avg != 0 {
		t.Errorf("GatewayID allocates %.1f/op, want 0", avg)
	}
	if id != HashString("group:"+k.String()) {
		t.Error("GatewayID differs from the string formula")
	}
}
