package gossip

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"peertrack/internal/transport"
)

// The fuzz targets re-state the merge and sampler properties over
// adversarial byte-derived inputs. `go test` runs the seed corpus only,
// so the suite stays deterministic; `go test -fuzz` explores further.

// decodeEntries derives an entry multiset from raw bytes: each byte
// pair is (peer index, age).
func decodeEntries(data []byte) []Entry {
	entries := make([]Entry, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		entries = append(entries, Entry{
			Ref: ref(fmt.Sprintf("peer-%04d", int(data[i])%40)),
			Age: uint32(data[i+1] % 24),
		})
	}
	return entries
}

func FuzzViewMerge(f *testing.F) {
	f.Add([]byte{0, 0, 1, 3, 2, 9}, uint8(4), int64(1))
	f.Add([]byte{7, 22, 7, 1, 7, 1, 0, 0}, uint8(1), int64(9))
	f.Add([]byte{}, uint8(8), int64(3))
	f.Fuzz(func(t *testing.T, data []byte, viewSize uint8, shuffleSeed int64) {
		cfg := Config{ViewSize: 1 + int(viewSize)%16, MaxAge: 16}
		entries := decodeEntries(data)

		a := testAgentF("peer-0000", cfg)
		a.mu.Lock()
		a.mergeLocked(entries)
		want := append([]Entry(nil), a.view...)
		a.mu.Unlock()

		if len(want) > cfg.ViewSize {
			t.Fatalf("view %d exceeds bound %d", len(want), cfg.ViewSize)
		}
		seen := map[transport.Addr]bool{}
		for _, e := range want {
			if e.Ref.Addr == a.self.Addr {
				t.Fatal("self entry in view")
			}
			if e.Age > cfg.MaxAge {
				t.Fatalf("over-age entry %d", e.Age)
			}
			if seen[e.Ref.Addr] {
				t.Fatalf("duplicate address %s", e.Ref.Addr)
			}
			seen[e.Ref.Addr] = true
		}

		// Permutation invariance under the shuffle seed.
		b := testAgentF("peer-0000", cfg)
		shuffled := append([]Entry(nil), entries...)
		rand.New(rand.NewSource(shuffleSeed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		b.mu.Lock()
		b.mergeLocked(shuffled)
		got := append([]Entry(nil), b.view...)
		b.mu.Unlock()
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("merge order-sensitive:\n %v\n %v", want, got)
		}
	})
}

func FuzzSampler(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5}, uint8(8))
	f.Add([]byte{9, 9, 9}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, slots uint8) {
		k := 2 + int(slots)%32
		var s sampler
		s.init(k, 77)
		fed := map[transport.Addr]bool{}
		for _, b := range data {
			r := ref(fmt.Sprintf("peer-%04d", int(b)%64))
			s.feed(r)
			fed[r.Addr] = true
		}
		// Every full slot holds a fed address with its correct minimum.
		for i, sl := range s.slots {
			if !sl.full {
				continue
			}
			if !fed[sl.ref.Addr] {
				t.Fatalf("slot %d holds never-fed address %s", i, sl.ref.Addr)
			}
			if got := mix64(addrHash(sl.ref.Addr) ^ s.seeds[i]); got != sl.hash {
				t.Fatalf("slot %d hash mismatch", i)
			}
			for addr := range fed {
				if h := mix64(addrHash(addr) ^ s.seeds[i]); h < sl.hash {
					t.Fatalf("slot %d kept %s but %s hashes lower", i, sl.ref.Addr, addr)
				}
			}
		}
		// Feeding is idempotent and order-insensitive: re-feeding
		// everything changes nothing.
		before := append([]slot(nil), s.slots...)
		for addr := range fed {
			s.feed(ref(string(addr)))
		}
		if !reflect.DeepEqual(before, s.slots) {
			t.Fatal("re-feeding mutated slots")
		}
		// Invalidation fully evicts an address.
		for addr := range fed {
			s.invalidate(addr)
			for i, sl := range s.slots {
				if sl.full && sl.ref.Addr == addr {
					t.Fatalf("slot %d still holds invalidated %s", i, addr)
				}
			}
			break
		}
	})
}

// testAgentF mirrors testAgent for fuzz targets (no *testing.T plumbing
// through the fuzz closure).
func testAgentF(name string, cfg Config) *Agent {
	if cfg.Seed == 0 {
		cfg.Seed = SeedFor(1, transport.Addr(name))
	}
	return New(nil, ref(name), cfg)
}
