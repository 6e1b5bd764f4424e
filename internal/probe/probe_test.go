package probe

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"peertrack/internal/ids"
)

// store is an arena of keys indexed by a Table, used the ways the
// stores in core and moods use one: appends, tombstoning removals with
// compaction (a gateway bucket), swap-removals (the gateway cache) —
// checked against a Go map of key to position.
type store struct {
	t     Table
	arena []uint64 // keys; 0 is a tombstone
	hash  func(uint64) uint64
	want  map[uint64]int32
}

func newStore(hash func(uint64) uint64) *store {
	return &store{hash: hash, want: map[uint64]int32{}}
}

func (s *store) find(k uint64) (int32, bool) {
	return s.t.Find(s.hash(k), func(pos int32) bool { return s.arena[pos] == k })
}

// apply runs one operation on key k (k > 0) and checks its outcome.
func (s *store) apply(tb testing.TB, op byte, k uint64) {
	pos, ok := s.find(k)
	if wpos, wok := s.want[k]; ok != wok || (ok && pos != wpos) {
		tb.Fatalf("find %d = %d, %v; want %d, %v", k, pos, ok, wpos, wok)
	}
	switch op % 4 {
	case 0: // insert
		if !ok {
			s.t.Insert(s.hash(k), int32(len(s.arena)))
			s.want[k] = int32(len(s.arena))
			s.arena = append(s.arena, k)
		}
	case 1: // tombstone
		if ok {
			s.t.Delete(s.hash(k), pos)
			s.arena[pos] = 0
			delete(s.want, k)
		}
	case 2: // swap the arena's last entry into the removed one's place
		if ok {
			s.t.Delete(s.hash(k), pos)
			delete(s.want, k)
			last := int32(len(s.arena) - 1)
			if moved := s.arena[last]; pos != last && moved != 0 {
				s.t.Delete(s.hash(moved), last)
				s.t.Insert(s.hash(moved), pos)
				s.want[moved] = pos
			}
			s.arena[pos] = s.arena[last]
			s.arena = s.arena[:last]
		}
	case 3: // compact away the tombstones, re-indexing what is left
		w := 0
		for _, key := range s.arena {
			if key != 0 {
				s.arena[w] = key
				w++
			}
		}
		s.arena = s.arena[:w]
		s.t = Table{}
		for i, key := range s.arena {
			s.t.Insert(s.hash(key), int32(i))
			s.want[key] = int32(i)
		}
	}
}

// check finds every held key at its position and the table's count.
func (s *store) check(tb testing.TB) {
	if s.t.Len() != len(s.want) {
		tb.Fatalf("table holds %d, want %d", s.t.Len(), len(s.want))
	}
	for k, wpos := range s.want {
		if pos, ok := s.find(k); !ok || pos != wpos {
			tb.Fatalf("find %d = %d, %v; want %d", k, pos, ok, wpos)
		}
	}
}

// hashes are the two hash functions a sequence runs under: the real one,
// and one that gives every key ≡ mod 7 the same 32 bits the table keeps,
// so slots collide in home and fingerprint and eq alone tells them apart.
var hashes = map[string]func(uint64) uint64{
	"seeded":    Uint64,
	"colliding": func(k uint64) uint64 { return Uint64(k%7)&^0xffffffff | k },
}

// run applies a sequence of (op, key) byte pairs, checking the whole
// store every 64 operations and at the end.
func run(tb testing.TB, hash func(uint64) uint64, ops []byte) {
	s := newStore(hash)
	for i := 0; i+1 < len(ops); i += 2 {
		s.apply(tb, ops[i], uint64(ops[i+1])+1)
		if i%128 == 0 {
			s.check(tb)
		}
	}
	s.check(tb)
}

func TestRandomSequencesMatchMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, hash := range hashes {
		for seq := 0; seq < 100; seq++ {
			ops := make([]byte, 2*(1+rng.Intn(4000)))
			rng.Read(ops)
			// Bias toward inserts so tables fill toward all 256 keys.
			for i := 0; i < len(ops); i += 2 {
				if rng.Intn(3) > 0 {
					ops[i] = 0
				}
			}
			run(t, hash, ops)
		}
		t.Logf("%s: 100 sequences", name)
	}
}

func TestGrowKeepsEveryPosition(t *testing.T) {
	for name, hash := range hashes {
		s := newStore(hash)
		for k := uint64(1); k <= 5000; k++ {
			s.apply(t, 0, k)
		}
		s.check(t)
		if len(s.t.slots) != 8192 {
			t.Errorf("%s: 5000 keys in %d slots, want 8192 (fill at most 7/8)", name, len(s.t.slots))
		}
	}
}

// TestFindAsksOnlyMatchingSlots puts 1 000 keys in one probe run, each
// with hash bits of its own: a lookup reads up to 1 000 slots but asks
// eq of one position, and the run is as long as longestProbe says.
func TestFindAsksOnlyMatchingSlots(t *testing.T) {
	var tab Table
	for k := range 1000 {
		tab.Insert(uint64(k)<<32, int32(k))
	}
	for k := range 1000 {
		asked := 0
		pos, ok := tab.Find(uint64(k)<<32, func(pos int32) bool { asked++; return pos == int32(k) })
		if !ok || pos != int32(k) || asked != 1 {
			t.Fatalf("find %d = %d, %v after asking eq %d times; want %d, true after once", k, pos, ok, asked, k)
		}
	}
	if n := longestProbe(&tab); n != 1000 {
		t.Errorf("longest probe %d, want 1000", n)
	}
}

// sampleHashes hashes one key with each of the stores' hashes.
func sampleHashes() []string {
	return []string{
		fmt.Sprintf("String %x", String("flood")),
		fmt.Sprintf("Bytes %x", Bytes([]byte("flood"))),
		fmt.Sprintf("Uint64 %x", Uint64(1)),
	}
}

// TestSeedDiffersAcrossProcesses hashes one key with each hash here and
// in a second run of this test binary. A hash without a per-process
// seed (raw key bits, FNV) gives both runs the same value, and a client
// could grind keys into one probe run against it offline.
func TestSeedDiffersAcrossProcesses(t *testing.T) {
	out, err := exec.Command(os.Args[0], "-test.run=^TestPrintHashes$", "-test.v").Output()
	if err != nil || !strings.Contains(string(out), "Uint64 ") {
		t.Fatalf("second run: %v\n%s", err, out)
	}
	for _, here := range sampleHashes() {
		if strings.Contains(string(out), here+"\n") {
			t.Errorf("two processes hash alike: %s", here)
		}
	}
}

// TestPrintHashes logs the sample hashes for
// TestSeedDiffersAcrossProcesses.
func TestPrintHashes(t *testing.T) {
	for _, h := range sampleHashes() {
		t.Log(h)
	}
}

// longestProbe is the most slots a lookup of a held position reads.
func longestProbe(t *Table) int {
	longest := 0
	for i, s := range t.slots {
		if s != 0 {
			longest = max(longest, (i-int(s>>t.shift))&(len(t.slots)-1)+1)
		}
	}
	return longest
}

// groundIDs returns n object ids in four equal groups. Within a group
// their SHA-1 ids agree in 12 bits: the top or the bottom of their first
// or of their last 8 bytes. That is what a client can grind against
// SHA-1, which is public and unseeded, and a table whose slot were picked
// by any of those bits would put a whole group in one probe run.
func groundIDs(n int) []string {
	windows := []func(ids.ID) uint64{
		func(id ids.ID) uint64 { return binary.BigEndian.Uint64(id[:8]) >> 52 },
		func(id ids.ID) uint64 { return binary.BigEndian.Uint64(id[:8]) & 0xfff },
		func(id ids.ID) uint64 { return id.Uint64() >> 52 },
		func(id ids.ID) uint64 { return id.Uint64() & 0xfff },
	}
	var out []string
	buf := []byte("flood-")
	for i := 0; len(out) < n; i++ {
		b := strconv.AppendInt(buf[:6], int64(i), 10)
		if windows[len(out)*len(windows)/n](ids.Hash(b)) == 0 {
			out = append(out, string(b))
		}
	}
	return out
}

// TestGroundIDsDoNotFlood indexes 1 000 ground ids the ways the stores
// do: by the object id (a repository, the oracle) and by its SHA-1 id (a
// gateway bucket). Each table then holds 1 000 of 2 048 slots. Of
// 200 000 such tables filled with random hashes, the longest lookup read
// 8–19 slots in 92 %, 48 or more in 4 in 100 000, and 51 at most; the
// tail falls by more than half every 4 slots, so the bound, 96, fails a
// seeded hash about once in a billion runs. Flooded, one run would be at
// least a group, 250 slots, long.
func TestGroundIDsDoNotFlood(t *testing.T) {
	var byObject, byID Table
	for i, obj := range groundIDs(1000) {
		id := ids.HashString(obj)
		byObject.Insert(String(obj), int32(i))
		byID.Insert(Bytes(id[:]), int32(i))
	}
	for name, tab := range map[string]*Table{"object id": &byObject, "SHA-1 id": &byID} {
		n := longestProbe(tab)
		t.Logf("by %s: %d keys, longest probe %d slots", name, tab.Len(), n)
		if n > 96 {
			t.Errorf("by %s: a lookup among %d ground ids reads %d slots, want ≤ 96", name, tab.Len(), n)
		}
	}
}

func FuzzTable(f *testing.F) {
	f.Add(byte(0), []byte{0, 1, 0, 2, 0, 3, 1, 2, 3, 0, 2, 1, 1, 3})
	f.Add(byte(1), []byte{0, 7, 0, 14, 0, 21, 2, 7, 1, 14, 0, 7})
	f.Fuzz(func(t *testing.T, colliding byte, ops []byte) {
		hash := hashes["seeded"]
		if colliding&1 == 1 {
			hash = hashes["colliding"]
		}
		run(t, hash, ops)
	})
}
