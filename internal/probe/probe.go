// Package probe is the one hash index the stores share: a store keeps
// its entries in an arena, a slice in insertion order, and a Table maps
// each key's hash to its entry's position. An 8-byte slot holds the top
// 32 bits of the hash over the position plus one (0 is empty), so a
// probe rejects a wrong key without reading the arena and the table
// grows from its own bits. Linear probing, at most 7/8 full, deletion by
// backward shift: 9–18 bytes an entry, where a Go map of a string key
// and a 24-byte value costs 66–91. The hash seed is drawn once a
// process, so no client can grind object ids into one probe run.
package probe

import (
	"encoding/binary"
	"hash/maphash"
)

var seed = maphash.MakeSeed()

// String, Bytes and Uint64 are the seeded hashes the stores key a
// table by: object ids and node names, node ids, and prefix keys.
func String(s string) uint64 { return maphash.String(seed, s) }
func Bytes(b []byte) uint64  { return maphash.Bytes(seed, b) }
func Uint64(k uint64) uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], k)
	return maphash.Bytes(seed, b[:])
}

// Table maps hashes to arena positions; the zero value is empty. It holds
// no keys: Find asks its caller for them, the rest take hash and position.
type Table struct {
	slots []uint64
	n     int32
	shift uint32 // 64 − log2(len(slots)): the home slot of hash h is h >> shift
}

// Len is the number of positions held.
func (t *Table) Len() int { return int(t.n) }

// Find returns the position hashed h for which eq reports true, asking
// eq only of positions whose slot carries h's bits. A nil Table is empty.
func (t *Table) Find(h uint64, eq func(pos int32) bool) (int32, bool) {
	if t == nil || t.n == 0 {
		return 0, false
	}
	for i := int(h >> t.shift); t.slots[i] != 0; i = (i + 1) & (len(t.slots) - 1) {
		if s := t.slots[i]; (s^h)>>32 == 0 && eq(int32(uint32(s))-1) {
			return int32(uint32(s)) - 1, true
		}
	}
	return 0, false
}

// Insert adds pos under h; the caller has found no entry of its key.
func (t *Table) Insert(h uint64, pos int32) {
	if int(t.n+1)*8 > len(t.slots)*7 {
		old, n, shift := t.slots, 2*len(t.slots), t.shift-1
		if n == 0 {
			n, shift = 8, 64-3
		}
		t.slots, t.shift = make([]uint64, n), shift
		for _, s := range old {
			if s != 0 {
				t.place(s)
			}
		}
	}
	t.place(h>>32<<32 | uint64(uint32(pos)+1))
	t.n++
}

// place puts s in the first empty slot from its home on.
func (t *Table) place(s uint64) {
	i := int(s >> t.shift)
	for t.slots[i] != 0 {
		i = (i + 1) & (len(t.slots) - 1)
	}
	t.slots[i] = s
}

// at returns the index of the slot holding pos under h.
func (t *Table) at(h uint64, pos int32) int {
	i := int(h >> t.shift)
	for uint32(t.slots[i]) != uint32(pos)+1 {
		if t.slots[i] == 0 {
			panic("probe: position not held")
		}
		i = (i + 1) & (len(t.slots) - 1)
	}
	return i
}

// Delete removes pos, held under h. Each later slot of its probe run
// moves back into the hole unless its home lies cyclically in (hole, j].
func (t *Table) Delete(h uint64, pos int32) {
	mask := len(t.slots) - 1
	i := t.at(h, pos)
	for j := (i + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		if home := int(t.slots[j] >> t.shift); (j-home)&mask >= (j-i)&mask {
			t.slots[i], i = t.slots[j], j
		}
	}
	t.slots[i] = 0
	t.n--
}
