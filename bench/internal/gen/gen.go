// Package gen makes the live workloads' inputs from a seed: objects
// with SGTIN-96 ids, each with a route of distinct nodes and arrival
// stamps one minute apart. The same seed gives the same inputs.
package gen

import (
	"math/rand"
	"time"

	"peertrack/internal/epc"
)

// Epoch is the arrival time of hop 0 of object 0. It lies in the past,
// so a locate "now" asks for an object's latest stop.
var Epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// HopGap separates consecutive stops of one object.
const HopGap = time.Minute

// Object is one tracked item and the nodes it visits, in order.
type Object struct {
	Index int // position in the generated set; spreads the stamps
	ID    string
	Route []int // fleet member indices, all distinct
}

// Objects generates n objects that each follow a route of hops distinct
// nodes out of nodes.
func Objects(seed int64, n, nodes, hops int) []Object {
	if hops > nodes {
		hops = nodes
	}
	ids := epc.NewGenerator(seed, 16, 256)
	rng := rand.New(rand.NewSource(seed))
	out := make([]Object, n)
	for i := range out {
		out[i] = Object{Index: i, ID: ids.NextURN(), Route: rng.Perm(nodes)[:hops]}
	}
	return out
}

// Stamp is when the object arrives at the given hop of its route.
func (o Object) Stamp(hop int) time.Time {
	return Epoch.Add(time.Duration(hop)*HopGap + time.Duration(o.Index)*time.Microsecond)
}

// Op is one operation kind of the mixed workload.
type Op uint8

const (
	Observe Op = iota
	Locate
	Trace
	NumOps
)

func (o Op) String() string { return [...]string{"observe", "locate", "trace"}[o] }

// Mix returns n operation kinds in seeded random order with exactly the
// given shares of observes and locates (rounded down); the rest are
// traces. Exact counts keep the work the same from seed to seed.
func Mix(seed int64, n int, observe, locate float64) []Op {
	out := make([]Op, n)
	observes, locates := int(observe*float64(n)), int(locate*float64(n))
	for i := range out {
		switch {
		case i < observes:
			out[i] = Observe
		case i < observes+locates:
			out[i] = Locate
		default:
			out[i] = Trace
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
