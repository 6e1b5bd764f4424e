// Recall: a contaminated production lot must be pulled from the
// market. Starting from nothing but the lot's EPC identifiers, the
// network locates every affected item and reconstructs its distribution
// path — the product-recall application from the paper's introduction.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"
	"time"

	"peertrack/internal/core"
	"peertrack/internal/epc"
	"peertrack/internal/moods"
	"peertrack/internal/workload"
)

func main() {
	// A 48-site network: 2 factories, 6 DCs, 12 warehouses, 28 stores.
	sc := workload.NewSupplyChain(2, 6, 12, 28)
	names := sc.AllNodes()
	nw, err := core.BuildNetwork(core.NetworkConfig{
		Nodes: len(names),
		Seed:  3,
		Peer:  core.Config{Mode: core.GroupIndexing},
	})
	if err != nil {
		log.Fatal(err)
	}
	peerOf := map[moods.NodeName]moods.NodeName{}
	siteOf := map[moods.NodeName]moods.NodeName{}
	for i, p := range nw.Peers() {
		peerOf[names[i]] = p.Name()
		siteOf[p.Name()] = names[i]
	}

	// The plant produces 30 lots; lot #13 will turn out contaminated.
	gen := epc.NewGenerator(99, 1, 4)
	rng := rand.New(rand.NewSource(4))
	var badLot []moods.ObjectID
	var horizon time.Duration
	for lot := 0; lot < 30; lot++ {
		tags := gen.Lot(40)
		objs := make([]moods.ObjectID, len(tags))
		for i, tg := range tags {
			urn, _ := tg.URN()
			objs[i] = moods.ObjectID(urn)
		}
		if lot == 13 {
			badLot = objs
		}
		// Each lot ships down one route; cases split across 2-3 stores
		// at the warehouse stage.
		route := sc.Route(rng)
		depart := time.Duration(lot) * 20 * time.Minute
		for i, obj := range objs {
			at := depart
			for hop, site := range route {
				// The last hop (store) differs per third of the lot.
				target := site
				if hop == len(route)-1 {
					target = sc.Stores[(rng.Intn(3)*7+i)%len(sc.Stores)]
				}
				obs := moods.Observation{
					Object: obj,
					Node:   peerOf[target],
					At:     at + time.Duration(rng.Intn(30))*time.Second,
				}
				if err := nw.ScheduleObservation(obs); err != nil {
					log.Fatal(err)
				}
				if obs.At > horizon {
					horizon = obs.At
				}
				at += 40 * time.Minute
			}
		}
	}
	nw.StartWindows(horizon + 2*time.Second)
	nw.Run()
	fmt.Printf("network loaded: %d observations indexed with %d messages\n\n",
		nw.Oracle.Len(), nw.Stats().Snapshot().Messages)

	// RECALL. Quality control flags lot #13. Any site can run the
	// recall — here, the factory.
	asker := nw.Peers()[0]
	fmt.Printf("recalling lot of %d items (%s ...)\n\n", len(badLot), badLot[0])

	storeHits := map[moods.NodeName][]moods.ObjectID{}
	inTransit := 0
	totalHops := 0
	for _, obj := range badLot {
		res, err := asker.FullTrace(obj)
		if err != nil {
			log.Fatalf("trace %s: %v", obj, err)
		}
		totalHops += res.Hops
		last := res.Path[len(res.Path)-1]
		site := siteOf[last.Node]
		if len(res.Path) < 4 {
			inTransit++
		}
		storeHits[site] = append(storeHits[site], obj)
	}

	sites := make([]moods.NodeName, 0, len(storeHits))
	for s := range storeHits {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	fmt.Println("current holdings of the contaminated lot:")
	for _, s := range sites {
		fmt.Printf("  %-14s %d items\n", s, len(storeHits[s]))
	}
	fmt.Printf("\nitems still in transit upstream: %d\n", inTransit)
	fmt.Printf("mean network hops per item trace: %.1f (no flooding — only the item's own path is visited)\n",
		float64(totalHops)/float64(len(badLot)))
}
