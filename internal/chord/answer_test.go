package chord

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"peertrack/internal/ids"
	"peertrack/internal/transport"
)

// truth is x's closest-preceding answer for key read from its routing
// state directly, not from a box.
func truth(x *Node, key ids.ID) (closestPrecedingResp, int) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.closestPreceding(key)
}

// askAll asks x about every key in [0, 256) as a remote question, which
// is answered from a box, checks each answer against x's routing state,
// and returns the answers.
func askAll(t *testing.T, net transport.Network, x *Node) []closestPrecedingResp {
	t.Helper()
	out := make([]closestPrecedingResp, 256)
	for k := range out {
		key := ids.FromUint64(uint64(k))
		resp, err := net.Call("asker", x.Addr(), closestPrecedingReq{Key: key})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := truth(x, key)
		if out[k] = resp.(closestPrecedingResp); out[k] != want {
			t.Fatalf("key %d: %s answers %s (done %v), its routing state says %s (done %v)",
				k, x.Addr(), out[k].Node.Addr, out[k].Done, want.Node.Addr, want.Done)
		}
	}
	return out
}

// filled counts x's boxes that hold an answer.
func filled(x *Node) int {
	boxes := x.answers.Load()
	if boxes == nil {
		return 0
	}
	n := 0
	for i := range *boxes {
		if (*boxes)[i].Load() != nil {
			n++
		}
	}
	return n
}

// asking is a node's transport that, before each call the node makes,
// asks the node every question of askAll: its boxes are full whenever
// one of its write holds begins, the second hold of a FixFingers round
// included, as on a live node whose handlers answer while it routes.
type asking struct {
	transport.Network
	before func()
}

func (a *asking) Call(from, to transport.Addr, req any) (any, error) {
	if from != "asker" {
		a.before()
	}
	return a.Network.Call(from, to, req)
}

// TestAnswerFollowsRoutingWrites: once a node's boxes are filled, each
// path that writes its routing state changes the next answer it gives,
// and the answer is the one the new state gives. A box that outlived
// its state would answer with the old node.
func TestAnswerFollowsRoutingWrites(t *testing.T) {
	net, nodes := placed(t, 10, 40, 80, 120, 200, 15, 30, 100, 35, 22)
	a, b, c, d, e := nodes[0], nodes[1], nodes[2], nodes[3], nodes[4]
	p, z, w, v, y := nodes[5], nodes[6], nodes[7], nodes[8], nodes[9]
	var x *Node
	x, err := NewWithID(&asking{Network: net, before: func() { askAll(t, net, x) }}, "n20", ids.FromUint64(20), Config{})
	if err != nil {
		t.Fatal(err)
	}
	WireStaticRing([]*Node{a, x, b, c, d, e})

	answers := askAll(t, net, x)
	slots := map[int]bool{}
	for k := range answers {
		_, slot := truth(x, ids.FromUint64(uint64(k)))
		slots[slot] = true
	}
	if got := filled(x); got != len(slots) {
		t.Fatalf("%d boxes filled after the questions, want one per slot they met (%d)", got, len(slots))
	}

	steps := []struct {
		name  string
		write func() error
		keeps bool // the answers stay; only the slots they come from move
	}{
		{"notify: a closer predecessor", func() error {
			_, err := net.Call(p.Addr(), x.Addr(), notifyReq{Candidate: p.Self()})
			return err
		}, false},
		{"Stabilize adopts a new successor", func() error {
			if err := z.Join(b.Self()); err != nil {
				return err
			}
			return x.Stabilize()
		}, false},
		{"FixFingers finds a joiner", func() error {
			if err := w.Join(c.Self()); err != nil {
				return err
			}
			if err := c.Stabilize(); err != nil {
				return err
			}
			// A pass over the table, asking after each call, so that what
			// drops the boxes a call's second hold outdates is that hold, not
			// the first hold of the call after it.
			for {
				if err := x.FixFingers(); err != nil {
					return err
				}
				askAll(t, net, x)
				x.mu.RLock()
				done := x.nextFinger >= ids.Bits
				x.mu.RUnlock()
				if done {
					return nil
				}
			}
		}, false},
		{"handleLeave: the successor leaves", z.Leave, false},
		// The leave zeroed the successor's fingers; the first hold of the
		// next call covers them with the new successor before its lookup,
		// during which the node answers questions.
		{"FixFingers refills the successor's run", x.FixFingers, true},
		{"RepairFromSamples: a closer sample", func() error {
			if x.RepairFromSamples([]NodeRef{v.Self()}, nil) != 1 {
				return fmt.Errorf("the sample did not enter the successor list")
			}
			return nil
		}, false},
		{"static re-wiring", func() error {
			WireStaticRing([]*Node{a, x, y, b, c, w, d, e})
			return nil
		}, false},
	}
	for _, st := range steps {
		if err := st.write(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		next := askAll(t, net, x)
		changed := 0
		for k := range next {
			if next[k] != answers[k] {
				changed++
			}
		}
		if changed == 0 && !st.keeps {
			t.Fatalf("%s: no answer changed; the step does not exercise the write", st.name)
		}
		t.Logf("%s: %d of %d answers changed", st.name, changed, len(next))
		answers = next
	}
}

// TestWarmAnswerAllocs: a remote question whose answer is boxed already
// costs no allocation, through the transport's accounting included.
func TestWarmAnswerAllocs(t *testing.T) {
	net, nodes := staticRing(t, 16)
	x := nodes[3]
	reqs := make([]any, 64)
	for i := range reqs {
		reqs[i] = closestPrecedingReq{Key: ids.HashString(fmt.Sprintf("warm-%d", i))}
	}
	ask := func() {
		for _, req := range reqs {
			if _, err := net.Call("asker", x.Addr(), req); err != nil {
				t.Fatal(err)
			}
		}
	}
	ask()
	if avg := testing.AllocsPerRun(50, ask); avg != 0 {
		t.Errorf("%d warm remote answers allocate %.1f times, want 0", len(reqs), avg)
	}
}

// TestRemoteLookupsRaceMaintenance runs remote lookups on a memory ring
// while nodes join and every node runs Stabilize and FixFingers: boxes
// are filled under read holds while writers drop them (run it with
// -race). Once maintenance stops, every lookup and every remote answer
// agrees with the ring.
func TestRemoteLookupsRaceMaintenance(t *testing.T) {
	net := transport.NewMemory(1)
	ring, err := BuildStaticRing(net, addrs(16), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var joiners []*Node
	for i := 0; i < 4; i++ {
		n, err := New(net, transport.Addr(fmt.Sprintf("joiner-%d", i)), Config{})
		if err != nil {
			t.Fatal(err)
		}
		joiners = append(joiners, n)
	}
	all := append(append([]*Node(nil), ring...), joiners...)

	// Three askers run a fixed number of lookups; maintenance runs rounds
	// until they are done, six at least, so the two overlap.
	var wg sync.WaitGroup
	var failed sync.Map
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				if _, err := ring[r.Intn(len(ring))].Lookup(ids.HashString(fmt.Sprintf("key-%d", r.Intn(512)))); err != nil {
					failed.Store(err.Error(), true)
				}
			}
		}(int64(g))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	asking := func() bool {
		select {
		case <-done:
			return false
		default:
			return true
		}
	}
	for round := 0; round < 6 || asking(); round++ {
		if round < len(joiners) {
			if err := joiners[round].Join(ring[round].Self()); err != nil {
				t.Errorf("join %d: %v", round, err)
			}
		}
		for _, n := range all {
			n.Stabilize()
			n.FixFingers()
		}
	}
	failed.Range(func(k, _ any) bool {
		t.Logf("a lookup during maintenance failed: %s", k)
		return true
	})

	if err := StabilizeAll(all, 3); err != nil {
		t.Fatal(err)
	}
	for _, n := range all {
		if err := n.FixAllFingers(); err != nil {
			t.Fatal(err)
		}
	}
	if !Converged(all) {
		t.Fatal("the ring did not converge after maintenance")
	}
	refs := refsOf(all)
	SortRefs(refs)
	for i := 0; i < 64; i++ {
		key := ids.HashString(fmt.Sprintf("after-%d", i))
		for _, n := range all {
			res, err := n.Lookup(key)
			if err != nil {
				t.Fatal(err)
			}
			if want := SuccessorOf(refs, key); !res.Node.Equal(want) {
				t.Fatalf("%s resolves %s to %s, want %s", n.Addr(), key.Short(), res.Node.Addr, want.Addr)
			}
			resp, err := net.Call("asker", n.Addr(), closestPrecedingReq{Key: key})
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := truth(n, key); resp.(closestPrecedingResp) != want {
				t.Fatalf("%s answers %+v for %s, its routing state says %+v", n.Addr(), resp, key.Short(), want)
			}
		}
	}
}
