package analysis

import (
	"go/ast"
)

// globalRandFuncs are the math/rand (and math/rand/v2) top-level
// functions that draw from the process-global source. rand.New,
// rand.NewSource, rand.NewZipf and the Rand/Source types are fine: a
// seeded *rand.Rand threaded from a schedule is exactly how
// deterministic code is supposed to get randomness.
var globalRandFuncs = map[string]bool{
	// shared by math/rand and math/rand/v2
	"Int": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true,
	"ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true,
	// math/rand
	"Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Seed": true, "Read": true,
	// math/rand/v2
	"N": true, "IntN": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "Uint": true, "UintN": true,
	"Uint32N": true, "Uint64N": true,
}

// DetRand forbids the global math/rand source in deterministic
// packages.
//
// The global source is seeded per process (randomly since Go 1.20), so
// any rand.Intn in simulated code makes two runs of the same seed
// diverge. Deterministic code must draw from a *rand.Rand constructed
// from the run's seed so every decision is replayable.
var DetRand = &Analyzer{
	Name:      "detrand",
	Doc:       "forbid global math/rand functions in deterministic packages; thread a seeded *rand.Rand from the schedule",
	AppliesTo: deterministicOnly,
	Run:       runDetRand,
}

func runDetRand(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			expr, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			for _, path := range []string{"math/rand", "math/rand/v2"} {
				name, ok := selectorCall(pass.TypesInfo, expr, path)
				if !ok || !globalRandFuncs[name] {
					continue
				}
				pass.Reportf(n.Pos(),
					"rand.%s draws from the process-global source, which is seeded per process; use a *rand.Rand seeded from the run's seed",
					name)
			}
			return true
		})
	}
	return nil
}
