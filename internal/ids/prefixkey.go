package ids

import "fmt"

// MaxKeyLen is the longest prefix a PrefixKey can represent. Group
// prefixes are bounded by Lp, and even Scheme 3 (the most aggressive,
// Lp = 2·log2 Nn) needs 56 bits only beyond 2^28 nodes; delegation
// descends a handful of bits further at most. 56 bits of prefix plus an
// 8-bit length fill one machine word.
const MaxKeyLen = 56

// PrefixKey packs a group prefix into a single uint64: the first
// MaxKeyLen prefix bits left-aligned in the high 56 bits, the bit
// length in the low 8 bits. It replaces binary-string map keys in the
// hot stores: hashing and comparing one word instead of a heap string.
//
// Numeric order on PrefixKey equals lexicographic order on the binary
// string form: for keys sharing bits the shorter sorts first (smaller
// low byte), otherwise the first differing bit decides (high bits).
// Sorted sweeps over packed keys therefore visit buckets in exactly the
// order the string-keyed store did, which keeps reconciliation and dump
// output byte-identical.
//
// The zero PrefixKey is the empty prefix. The all-ones value is an
// invalid encoding (length 255) reserved by callers as a sentinel; it
// sorts after every valid key.
type PrefixKey uint64

// NoPrefixKey is the reserved sentinel: not a valid encoding of any
// prefix, numerically after every valid key.
const NoPrefixKey = PrefixKey(^uint64(0))

// Key packs the prefix. It panics beyond MaxKeyLen; callers that extend
// prefixes (delegation, descent) must stop at MaxKeyLen.
func (p Prefix) Key() PrefixKey {
	if p.Len > MaxKeyLen {
		panic(fmt.Sprintf("ids: prefix length %d exceeds PrefixKey capacity %d", p.Len, MaxKeyLen))
	}
	var bits uint64
	for i := 0; i < 7; i++ {
		bits = bits<<8 | uint64(p.Bits[i])
	}
	return PrefixKey(bits<<8 | uint64(p.Len))
}

// Len returns the prefix bit length encoded in the key.
func (k PrefixKey) Len() int { return int(k & 0xFF) }

// Prefix unpacks the key back into the full Prefix form.
func (k PrefixKey) Prefix() Prefix {
	n := k.Len()
	if n > MaxKeyLen {
		panic(fmt.Sprintf("ids: invalid PrefixKey length %d", n))
	}
	var p Prefix
	p.Len = n
	bits := uint64(k) >> 8
	for i := 6; i >= 0; i-- {
		p.Bits[i] = byte(bits)
		bits >>= 8
	}
	return p
}

// String renders the binary-string form without unpacking.
func (k PrefixKey) String() string { return k.Prefix().String() }

// KeyOf extracts the length-n prefix of id directly as a packed key,
// without materializing the intermediate Prefix. This is the capture
// window's grouping step, executed once per observation.
func KeyOf(id ID, n int) PrefixKey {
	if n < 0 || n > MaxKeyLen {
		panic(fmt.Sprintf("ids: prefix length %d out of PrefixKey range", n))
	}
	var bits uint64
	for i := 0; i < 7; i++ {
		bits = bits<<8 | uint64(id[i])
	}
	if n < 64-8 {
		bits &= ^uint64(0) << (56 - n)
	}
	return PrefixKey(bits<<8 | uint64(n))
}
