package ids

import (
	"math/rand"
	"sort"
	"testing"
)

func TestPrefixKeyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		id := HashString(string(rune('a' + i%26)))
		id[0] = byte(rng.Intn(256))
		n := rng.Intn(MaxKeyLen + 1)
		p := PrefixOf(id, n)
		k := p.Key()
		if got := k.Prefix(); !got.Equal(p) {
			t.Fatalf("round trip %v/%d: got %v", p.Bits, p.Len, got)
		}
		if k.Len() != n {
			t.Fatalf("Len: got %d want %d", k.Len(), n)
		}
		if k.String() != p.String() {
			t.Fatalf("String: got %q want %q", k.String(), p.String())
		}
		if k2 := KeyOf(id, n); k2 != k {
			t.Fatalf("KeyOf(%v, %d) = %x, Key() = %x", id, n, k2, k)
		}
	}
}

func TestPrefixKeyZeroAndSentinel(t *testing.T) {
	var empty Prefix
	if empty.Key() != 0 {
		t.Fatalf("empty prefix key = %x, want 0", empty.Key())
	}
	if NoPrefixKey.Len() <= MaxKeyLen {
		t.Fatalf("sentinel length %d must be invalid (> %d)", NoPrefixKey.Len(), MaxKeyLen)
	}
	// The sentinel must sort after every valid key.
	deepest := PrefixOf(ID{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, MaxKeyLen)
	if !(deepest.Key() < NoPrefixKey) {
		t.Fatalf("sentinel %x does not sort last (deepest valid key %x)", NoPrefixKey, deepest.Key())
	}
}

// TestPrefixKeyOrderMatchesString is the determinism contract: sorted
// sweeps over packed keys must visit buckets in the same order as the
// old binary-string keys, or reconciliation and dump output would
// change between layouts.
func TestPrefixKeyOrderMatchesString(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	keys := make([]PrefixKey, 0, 500)
	for i := 0; i < 500; i++ {
		var id ID
		for b := 0; b < 7; b++ {
			id[b] = byte(rng.Intn(256))
		}
		keys = append(keys, KeyOf(id, rng.Intn(MaxKeyLen+1)))
	}
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
	defer func() {
		if recover() == nil {
			t.Fatal("Key() beyond MaxKeyLen did not panic")
		}
	}()
	_ = PrefixOf(HashString("x"), MaxKeyLen+1).Key()
}

// TestPrefixKeyZeroAllocs pins the packed key's whole point: packing,
// unpacking, reading the length and cutting a key out of an id are word
// operations, executed once per observation, and none of them allocates.
func TestPrefixKeyZeroAllocs(t *testing.T) {
	id := HashString("obj-17")
	p := PrefixOf(id, 11)
	var key PrefixKey
	var back Prefix
	var n int
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"Prefix.Key", func() { key = p.Key() }},
		{"KeyOf", func() { key = KeyOf(id, 11) }},
		{"PrefixKey.Len", func() { n = key.Len() }},
		{"PrefixKey.Prefix", func() { back = key.Prefix() }},
	} {
		if avg := testing.AllocsPerRun(200, c.op); avg != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", c.name, avg)
		}
	}
	if !back.Equal(p) || n != 11 {
		t.Errorf("round trip = %v/%d, want %v/11", back, n, p)
	}
}

// TestGatewayIDMatchesStringFormula: GatewayID writes its input into a
// stack buffer; the digest must stay that of "group:" + the binary
// string, for every length it is ever asked for and for random bits, or
// every group's gateway moves.
func TestGatewayIDMatchesStringFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	check := func(p Prefix) {
		t.Helper()
		if got, want := p.GatewayID(), HashString("group:"+p.String()); got != want {
			t.Fatalf("GatewayID(%v) = %v, want %v", p, got, want)
		}
	}
	for n := 0; n <= 64; n++ {
		check(PrefixOf(randomID(rng), n))
	}
	for i := 0; i < 1000; i++ {
		check(PrefixOf(randomID(rng), rng.Intn(Bits+1)))
	}
}

// TestGatewayIDZeroAllocs: a gateway-cache miss hashes the prefix
// without touching the heap.
func TestGatewayIDZeroAllocs(t *testing.T) {
	p := PrefixOf(HashString("obj-17"), 11)
	var id ID
	if avg := testing.AllocsPerRun(200, func() { id = p.GatewayID() }); avg != 0 {
		t.Errorf("GatewayID allocates %.1f/op, want 0", avg)
	}
	if id != HashString("group:"+p.String()) {
		t.Error("GatewayID differs from the string formula")
	}
}
