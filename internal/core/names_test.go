package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"peertrack/internal/ids"
	"peertrack/internal/moods"
)

// TestNameTableUnderConcurrentHandlers: on a live node the repository,
// the buckets and the gateway cache are written from concurrent TCP
// handler goroutines, each interning into the peer's one nameTable
// while the others read it. On a peer that has met no name yet, workers
// run iopSetFromReq, iopSetToReq and groupArriveReq with names of their
// own beside Observe, FlushWindow and FullTrace, and every answer —
// iopGetReq's visits, queryIndexReq's head, the trace — must name what
// was written. CI runs it under -race, repeated.
func TestNameTableUnderConcurrentHandlers(t *testing.T) {
	const workers, rounds = 8, 40
	nw := buildNet(t, 24, Config{})
	peers := nw.Peers()
	p, asker := peers[0], peers[1]
	lp := nw.PM.Lp()

	// Objects to trace, moved among the other peers and indexed away
	// from p, so that p's table is still empty when the workers start.
	var traced []moods.ObjectID
	for i := 0; len(traced) < workers; i++ {
		obj := moods.ObjectID(fmt.Sprintf("traced-%d", i))
		if gw, err := asker.resolveGateway(ids.KeyOf(obj.Hash(), lp).Prefix()); err != nil {
			t.Fatal(err)
		} else if gw == p.Addr() {
			continue
		}
		moveObject(t, nw, obj, []int{1 + i%7, 8 + i%7, 15 + i%7}, time.Second, time.Minute)
		traced = append(traced, obj)
	}
	nw.StartWindows(10 * time.Minute)
	nw.Run()
	if p.names.p.Load() != nil {
		t.Fatal("the peer has met a name before the workers start")
	}

	call := func(req any) any {
		resp, err := p.handleRPC(asker.Addr(), req)
		if err != nil {
			t.Errorf("%T: %v", req, err)
		}
		return resp
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				obj := moods.ObjectID(fmt.Sprintf("w%d-r%d", w, r))
				from := moods.NodeName(fmt.Sprintf("from-w%d-r%d", w, r))
				to := moods.NodeName(fmt.Sprintf("to-w%d-r%d", w, r))
				at := time.Duration(r+1) * time.Hour

				// M3 ahead of the capture creates the visit, M2 closes it.
				call(iopSetFromReq{Links: []IOPLink{{Object: obj, From: from, At: at}}})
				call(iopSetToReq{Objects: []moods.ObjectID{obj}, To: to, At: at + time.Second})
				want := []VisitRecord{{Object: obj, Arrived: at, From: from, To: to}}
				if got, _ := call(iopGetReq{Object: obj}).(iopGetResp); !got.Found || !slices.Equal(got.Visits, want) {
					t.Errorf("%s: visits %+v, want %+v", obj, got.Visits, want)
				}

				// A first sighting reported by from becomes the head.
				key := ids.KeyOf(obj.Hash(), lp)
				call(groupArriveReq{Key: key, Events: []ObjEvent{{Object: obj, Arrived: at}}, Node: from, At: at})
				head := IndexEntry{Object: obj, ID: obj.Hash(), Latest: from, Arrived: at}
				if got, _ := call(queryIndexReq{Key: key, Objects: []ids.ID{obj.Hash()}}).(queryIndexResp); len(got.Entries) != 1 ||
					got.Entries[0].Latest != head.Latest || got.Entries[0].Prev != "" || got.Entries[0].Arrived != at {
					t.Errorf("%s: index entries %+v, want the head %+v", obj, got.Entries, head)
				}

				// A capture at p, flushed through the gateway cache, and a
				// trace from p through it.
				if err := p.Observe(moods.Observation{Object: obj + "-seen", Node: p.Name(), At: at}); err != nil {
					t.Error(err)
				}
				if err := p.FlushWindow(); err != nil {
					t.Error(err)
				}
				o := traced[(w+r)%len(traced)]
				if res, err := p.FullTrace(o); err != nil || !res.Path.Equal(nw.Oracle.FullTrace(o)) {
					t.Errorf("%s: trace %v (%v), want %v", o, res.Path, err, nw.Oracle.FullTrace(o))
				}
			}
		}(w)
	}
	wg.Wait()
}
