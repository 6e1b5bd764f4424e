// Package ids implements identifier arithmetic for a 160-bit SHA-1
// identifier space arranged as a ring, as used by the Chord protocol and
// by PeerTrack's prefix-based group indexing.
//
// Identifiers are fixed-size 20-byte big-endian values. The package
// provides ring-interval membership tests (the backbone of Chord
// routing), modular arithmetic, prefix extraction and comparison (the
// backbone of group indexing and Data Triangles), and hashing helpers
// that map raw object/node names into the identifier space.
package ids

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
)

// Bits is the width of the identifier space in bits.
const Bits = 160

// Bytes is the width of the identifier space in bytes.
const Bytes = Bits / 8

// ID is a 160-bit identifier in big-endian byte order. The zero value is
// the identifier 0.
type ID [Bytes]byte

// Hash maps an arbitrary byte string into the identifier space using
// SHA-1, exactly as the paper prescribes for both node addresses and raw
// object ids ("we hash the object's raw id using the SHA-1 function").
func Hash(data []byte) ID {
	return ID(sha1.Sum(data))
}

// HashString is Hash for strings.
func HashString(s string) ID {
	return Hash([]byte(s))
}

// FromUint64 returns the identifier whose value is v. Useful for tests
// and for constructing small deterministic rings.
func FromUint64(v uint64) ID {
	var id ID
	for i := 0; i < 8; i++ {
		id[Bytes-1-i] = byte(v >> (8 * i))
	}
	return id
}

// Uint64 returns the low 64 bits of the identifier.
func (id ID) Uint64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(id[Bytes-8+i])
	}
	return v
}

// String returns the full 40-hex-digit representation.
func (id ID) String() string {
	return hex.EncodeToString(id[:])
}

// Short returns an abbreviated hex form (first 8 hex digits) for logs.
func (id ID) Short() string {
	return hex.EncodeToString(id[:4])
}

// Cmp compares two identifiers numerically, returning -1, 0, or +1.
func (id ID) Cmp(other ID) int { return cmp(&id, &other) }

// cmp is Cmp on pointers, a big-endian word at a time (8 + 8 + 4 bytes).
// Ring tests run it three times a routing step; inside the package the
// identifiers stay where they are instead of being copied per call.
func cmp(a, b *ID) int {
	for i := 0; i < 16; i += 8 {
		x, y := binary.BigEndian.Uint64(a[i:]), binary.BigEndian.Uint64(b[i:])
		if x != y {
			return sign(x < y)
		}
	}
	x, y := binary.BigEndian.Uint32(a[16:]), binary.BigEndian.Uint32(b[16:])
	if x != y {
		return sign(x < y)
	}
	return 0
}

// sign is -1 when less holds, +1 otherwise.
func sign(less bool) int {
	if less {
		return -1
	}
	return 1
}

// Less reports whether id < other numerically.
func (id ID) Less(other ID) bool { return id.Cmp(other) < 0 }

// IsZero reports whether the identifier is the zero identifier.
func (id ID) IsZero() bool { return id == ID{} }

// Add returns (id + other) mod 2^160.
func (id ID) Add(other ID) ID {
	var out ID
	var carry uint16
	for i := Bytes - 1; i >= 0; i-- {
		s := uint16(id[i]) + uint16(other[i]) + carry
		out[i] = byte(s)
		carry = s >> 8
	}
	return out
}

// Sub returns (id - other) mod 2^160.
func (id ID) Sub(other ID) ID {
	var out ID
	var borrow int16
	for i := Bytes - 1; i >= 0; i-- {
		d := int16(id[i]) - int16(other[i]) - borrow
		if d < 0 {
			d += 256
			borrow = 1
		} else {
			borrow = 0
		}
		out[i] = byte(d)
	}
	return out
}

// AddPow2 returns (id + 2^k) mod 2^160, 0 <= k < Bits. This computes the
// start of Chord finger k+1: finger[k].start = n + 2^(k-1).
func (id ID) AddPow2(k int) ID {
	if k < 0 || k >= Bits {
		panic(fmt.Sprintf("ids: AddPow2 exponent %d out of range", k))
	}
	var p ID
	byteIdx := Bytes - 1 - k/8
	p[byteIdx] = 1 << (k % 8)
	return id.Add(p)
}

// Distance returns the clockwise distance from id to other on the ring,
// i.e. (other - id) mod 2^160.
func Distance(id, other ID) ID {
	return other.Sub(id)
}

// Between reports whether x lies in the open ring interval (a, b). The
// interval wraps: if a == b the interval is the whole ring minus {a}.
// The identifiers are passed by pointer: a routing step tests every
// finger it scans, in place.
func Between(x, a, b *ID) bool {
	ca := cmp(a, b)
	switch {
	case ca < 0:
		return cmp(a, x) < 0 && cmp(x, b) < 0
	case ca > 0:
		return cmp(a, x) < 0 || cmp(x, b) < 0
	default: // a == b: whole ring minus the point a
		return *x != *a
	}
}

// BetweenRightIncl reports whether x lies in the half-open ring interval
// (a, b]. This is the Chord successor test: key k belongs to node n iff
// k ∈ (predecessor(n), n].
func BetweenRightIncl(x, a, b *ID) bool { return *x == *b || Between(x, a, b) }

// Bit returns bit i of the identifier, where bit 0 is the most
// significant bit. Prefix-based grouping reads bits in this order.
func (id ID) Bit(i int) int {
	if i < 0 || i >= Bits {
		panic(fmt.Sprintf("ids: Bit index %d out of range", i))
	}
	return int(id[i/8]>>(7-i%8)) & 1
}

// LeadingZeros returns the number of leading zero bits.
func (id ID) LeadingZeros() int {
	for i, b := range id {
		if b != 0 {
			return i*8 + bits.LeadingZeros8(b)
		}
	}
	return Bits
}
