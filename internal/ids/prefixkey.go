package ids

import "fmt"

// MaxKeyLen is the longest prefix a PrefixKey can represent. Group
// prefixes are bounded by Lp, and even Scheme 3 (the most aggressive,
// Lp = 2·log2 Nn) needs 56 bits only beyond 2^28 nodes; Lp is capped
// here, and delegation stops here. 56 bits of prefix plus an 8-bit
// length fill one machine word.
const MaxKeyLen = 56

// PrefixKey is a group prefix: the first Len bits of an identifier.
// Prefixes are the group ids of the paper's group indexing algorithm:
// objects whose hashed ids share the first Lp bits belong to the same
// group, and the group's gateway node is the DHT successor of
// Hash(prefix-string). The key packs the prefix into one uint64: the
// prefix bits left-aligned in the high 56 bits, every bit past the
// length zero, and the bit length in the low 8 bits. Stores, the wire
// and spans hash and compare this one word.
//
// Numeric order on PrefixKey equals lexicographic order on the binary
// string form: for keys sharing bits the shorter sorts first (smaller
// low byte), otherwise the first differing bit decides (high bits).
// Sorted sweeps over packed keys therefore visit buckets in exactly the
// order a string-keyed store would, which keeps reconciliation and dump
// output byte-identical.
//
// The zero PrefixKey is the empty prefix, which matches every
// identifier. NoPrefixKey is the one valid key that is not a prefix.
type PrefixKey uint64

// NoPrefixKey is the reserved sentinel: not the encoding of any prefix
// (length 255), numerically after every prefix key. Individual indexing
// keeps its per-object records under it; its string form is
// noPrefixName, which no binary string can equal and which sorts after
// every binary string, as the key sorts after every prefix key.
const NoPrefixKey = PrefixKey(^uint64(0))

const noPrefixName = "@individual"

// KeyOf extracts the length-n prefix of id. This is the capture
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

// Valid reports whether k is in its one form: a length of at most
// MaxKeyLen with every bit past it zero, or NoPrefixKey. Every key
// KeyOf, Parent and Child return is valid; a key read from
// outside the program must be checked.
func (k PrefixKey) Valid() bool {
	n := k.Len()
	return k == NoPrefixKey || n <= MaxKeyLen && k.bits()<<n == 0
}

// Len returns the prefix bit length encoded in the key.
func (k PrefixKey) Len() int { return int(k & 0xFF) }

// bits returns the prefix bits, left-aligned, without the length.
func (k PrefixKey) bits() uint64 { return uint64(k) &^ 0xFF }

// String renders the binary-string form, e.g. "0001" — the string the
// gateway id hashes, mirroring the paper's hash("000") notation.
func (k PrefixKey) String() string {
	if k == NoPrefixKey {
		return noPrefixName
	}
	return string(k.appendBits(make([]byte, 0, MaxKeyLen)))
}

// appendBits appends the binary-string form of a prefix key.
func (k PrefixKey) appendBits(b []byte) []byte {
	n := k.Len()
	if n > MaxKeyLen {
		panic(fmt.Sprintf("ids: invalid PrefixKey length %d", n))
	}
	for i := 0; i < n; i++ {
		b = append(b, '0'+byte(k>>(63-i)&1))
	}
	return b
}

// Matches reports whether id starts with prefix k.
func (k PrefixKey) Matches(id ID) bool { return KeyOf(id, k.Len()) == k }

// Parent returns the prefix with the last bit removed. Parent of the
// empty prefix panics.
func (k PrefixKey) Parent() PrefixKey {
	n := k.Len()
	if n == 0 {
		panic("ids: Parent of empty prefix")
	}
	return PrefixKey(k.bits()&^(1<<(64-n)) | uint64(n-1))
}

// Child returns the prefix extended by one bit (0 or 1). In Data
// Triangle terms these are the two child nodes of a gateway. Child of
// a MaxKeyLen prefix panics.
func (k PrefixKey) Child(bit int) PrefixKey {
	n := k.Len()
	if n >= MaxKeyLen {
		panic(fmt.Sprintf("ids: Child of a prefix of length %d", n))
	}
	b := k.bits()
	if bit != 0 {
		b |= 1 << (63 - n)
	}
	return PrefixKey(b | uint64(n+1))
}

// NextBit returns the bit of id immediately after this prefix, which is
// the bit the Data Triangle parent uses to pick the delegation child.
func (k PrefixKey) NextBit(id ID) int { return id.Bit(k.Len()) }

// GatewayID maps a prefix to its gateway key in the identifier space by
// hashing "group:" and the prefix's binary-string form, as the paper
// specifies: "objects belonging to the group “00” will be indexed in
// the node hash(“00”)".
func (k PrefixKey) GatewayID() ID {
	// The buffer stays on the stack: this runs on every gateway-cache miss.
	return Hash(k.appendBits(append(make([]byte, 0, len("group:")+MaxKeyLen), "group:"...)))
}
