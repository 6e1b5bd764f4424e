package epc

import (
	"fmt"
	"math/rand"
)

// Generator produces deterministic streams of valid SGTIN-96 tags for
// synthetic workloads: a fixed set of companies and products with
// monotonically increasing serials, mimicking how real supply-chain tag
// populations look (few prefixes, many serials).
type Generator struct {
	rng       *rand.Rand
	companies []uint64
	products  []uint64
	nextSer   uint64
}

// NewGenerator creates a generator with nCompanies 7-digit company
// prefixes and nProducts 6-digit item references, seeded for
// reproducibility.
func NewGenerator(seed int64, nCompanies, nProducts int) *Generator {
	if nCompanies <= 0 {
		nCompanies = 1
	}
	if nProducts <= 0 {
		nProducts = 1
	}
	rng := rand.New(rand.NewSource(seed))
	g := &Generator{rng: rng}
	seen := map[uint64]bool{}
	for len(g.companies) < nCompanies {
		// 7-digit prefixes (partition 5).
		c := 1000000 + uint64(rng.Intn(9000000))
		if !seen[c] {
			seen[c] = true
			g.companies = append(g.companies, c)
		}
	}
	for i := 0; i < nProducts; i++ {
		g.products = append(g.products, uint64(100000+rng.Intn(900000)))
	}
	return g
}

// Next returns a fresh tag: random company/product, next serial.
func (g *Generator) Next() SGTIN96 {
	g.nextSer++
	return SGTIN96{
		Filter:        1,
		Partition:     5, // 7-digit company prefix, 6-digit item ref
		CompanyPrefix: g.companies[g.rng.Intn(len(g.companies))],
		ItemReference: g.products[g.rng.Intn(len(g.products))],
		Serial:        g.nextSer,
	}
}

// NextURN returns the pure-identity URN of a fresh tag.
func (g *Generator) NextURN() string {
	u, err := g.Next().URN()
	if err != nil {
		// Generator invariants guarantee validity; a failure is a bug.
		panic(fmt.Sprintf("epc: generator produced invalid tag: %v", err))
	}
	return u
}

// Lot returns n tags sharing one company/product (a production lot),
// differing only in serial — the shape of a recall scenario.
func (g *Generator) Lot(n int) []SGTIN96 {
	company := g.companies[g.rng.Intn(len(g.companies))]
	product := g.products[g.rng.Intn(len(g.products))]
	out := make([]SGTIN96, n)
	for i := range out {
		g.nextSer++
		out[i] = SGTIN96{
			Filter:        2, // full case
			Partition:     5,
			CompanyPrefix: company,
			ItemReference: product,
			Serial:        g.nextSer,
		}
	}
	return out
}
