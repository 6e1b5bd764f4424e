package ids

import "fmt"

// Prefix is a bit-string prefix of an identifier: the first Len bits of
// ID (remaining bits of ID are zero). Prefixes are the group ids of the
// paper's group indexing algorithm: objects whose hashed ids share the
// first Lp bits belong to the same group, and the group's gateway node
// is the DHT successor of Hash(prefix-string).
//
// The zero Prefix (Len == 0) denotes the empty prefix, which matches
// every identifier.
type Prefix struct {
	Bits ID  // prefix bits, left-aligned; bits past Len are zero
	Len  int // number of significant bits, 0..ids.Bits
}

// PrefixOf extracts the length-n prefix of id.
func PrefixOf(id ID, n int) Prefix {
	if n < 0 || n > Bits {
		panic(fmt.Sprintf("ids: prefix length %d out of range", n))
	}
	var p ID
	full := n / 8
	copy(p[:full], id[:full])
	if rem := n % 8; rem != 0 {
		mask := byte(0xFF << (8 - rem))
		p[full] = id[full] & mask
	}
	return Prefix{Bits: p, Len: n}
}

// ParsePrefix parses a binary string such as "0110" into a Prefix.
func ParsePrefix(s string) (Prefix, error) {
	if len(s) > Bits {
		return Prefix{}, fmt.Errorf("ids: prefix %q longer than %d bits", s, Bits)
	}
	var p Prefix
	p.Len = len(s)
	for i, c := range s {
		switch c {
		case '0':
		case '1':
			p.Bits[i/8] |= 1 << (7 - i%8)
		default:
			return Prefix{}, fmt.Errorf("ids: prefix %q: invalid character %q", s, c)
		}
	}
	return p, nil
}

// MustParsePrefix is ParsePrefix that panics on error, for tests and
// constants.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// String renders the prefix as a binary string, e.g. "0001". This string
// is what gets hashed to choose the group's gateway node, mirroring the
// paper's hash("000") notation.
func (p Prefix) String() string { return string(p.appendBits(make([]byte, 0, Bits))) }

func (p Prefix) appendBits(b []byte) []byte {
	for i := 0; i < p.Len; i++ {
		b = append(b, '0'+byte(p.Bits.Bit(i)))
	}
	return b
}

// Matches reports whether id starts with prefix p.
func (p Prefix) Matches(id ID) bool {
	return PrefixOf(id, p.Len).Bits == p.Bits
}

// Parent returns the prefix with the last bit removed. Parent of the
// empty prefix panics.
func (p Prefix) Parent() Prefix {
	if p.Len == 0 {
		panic("ids: Parent of empty prefix")
	}
	return PrefixOf(p.Bits, p.Len-1)
}

// Child returns the prefix extended by one bit (0 or 1). In Data
// Triangle terms these are the two child nodes of a gateway.
func (p Prefix) Child(bit int) Prefix {
	if p.Len >= Bits {
		panic("ids: Child of full-length prefix")
	}
	q := p
	q.Len++
	if bit != 0 {
		q.Bits[p.Len/8] |= 1 << (7 - p.Len%8)
	}
	return q
}

// GatewayID maps a prefix to its gateway key in the identifier space by
// hashing the prefix's binary-string form, as the paper specifies:
// "objects belonging to the group “00” will be indexed in the node
// hash(“00”)".
func (p Prefix) GatewayID() ID {
	// The buffer stays on the stack: this runs on every gateway-cache miss.
	return Hash(p.appendBits(append(make([]byte, 0, len("group:")+Bits), "group:"...)))
}

// NextBit returns the bit of id immediately after this prefix, which is
// the bit the Data Triangle parent uses to pick the delegation child.
func (p Prefix) NextBit(id ID) int {
	return id.Bit(p.Len)
}

// Equal reports whether two prefixes are identical.
func (p Prefix) Equal(q Prefix) bool {
	return p.Len == q.Len && p.Bits == q.Bits
}
