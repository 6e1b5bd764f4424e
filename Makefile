GO ?= go

.PHONY: build examples test check vet deadpkgs unlinked loc loc-check race flake-hunt fuzz-short bench-module micro figures chaos-short chaos cluster-smoke telemetry-demo profile profile-sim xl

build:
	$(GO) build ./...

# examples runs every example end to end (≈ 1 s for all five). They
# are the only programs built on peertrack.Simulation and
# workload.SupplyChain; no binary or figure runs them.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d || exit 1; done

# test runs the suite without the race detector. Besides the goldens and
# allocation pins it holds the bounds past the paper's scale:
# TestXLBuildBytesPerNode (heap per node of a 20k-node build),
# TestChurn10xDiscriminates (gossip reconvergence rounds) and
# TestExpReplicationOverheadAndFailover (factor-2 message overhead).
test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# deadpkgs enforces "every package is imported by a shipped binary or a
# figure": each package under internal/ must be a dependency of the root
# package, a cmd/ binary or an example. The wire layouts' test-support
# package is the one exception.
deadpkgs:
	@deps=$$($(GO) list -deps . ./cmd/... ./examples/...); \
	for p in $$($(GO) list ./internal/...); do \
		case $$p in */wiretest) continue;; esac; \
		echo "$$deps" | grep -qxF "$$p" || { echo "deadpkgs: no binary or example imports $$p"; dead=1; }; \
	done; [ -z "$$dead" ]

# unlinked lists, with file and line, the root module's functions that
# no binary, example or the repository benchmark (bench/cmd/ptbench)
# links, then their count (EXPERIMENTS "Reachability"). Built with
# inlining off, every function a program calls keeps a symbol and the
# linker's dead-code pass drops the rest; the perl folds generic
# instantiations, closures and method values into the function they
# belong to. Declarations are read from the files git tracks. Not a
# gate: a test seam is unlinked by design. Output lands in bin/unlinked.
unlinked:
	@export LC_ALL=C; out=bin/unlinked; rm -rf $$out; mkdir -p $$out/bin; \
	for d in cmd/* examples/*; do $(GO) build -gcflags=all=-l -o $$out/bin/$$(basename $$d) ./$$d || exit 1; done; \
	(cd bench && $(GO) build -gcflags=all=-l -o ../$$out/bin/ptbench ./cmd/ptbench) || exit 1; \
	for b in $$out/bin/*; do \
		$(GO) tool nm $$b | awk '$$2 ~ /^[Tt]$$/ { $$1 = $$2 = ""; print substr($$0, 3) }' | \
			perl -pe 's/\[(?:[^\[\]]++|(?R))*\]//g; s/\.func[0-9.]+$$|-fm$$//; s/^main\./main\/'$$(basename $$b)'./'; \
	done | sort -u > $$out/linked; \
	git ls-files '*.go' ':!:*_test.go' ':!:bench/' | while read f; do \
		d=$$(dirname $$f); p=peertrack/$$d; [ $$d = . ] && p=peertrack; \
		case $$d in cmd/*|examples/*) p=main/$$(basename $$d);; esac; \
		perl -ne 'print "'$$p'.", ($$2 ? ($$1 ? "($$1$$2)." : "$$2.") : ""), "$$3\t'$$f':$$.\n" if /^func (?:\(\w+ (\*?)(\w+)(?:\[[^\]]*\])?\) )?(\w+)/ && $$3 ne "init"' $$f; \
	done | sort > $$out/declared; \
	join -t "$$(printf '\t')" -v 1 $$out/declared $$out/linked > $$out/unlinked; \
	cat $$out/unlinked; echo "unlinked: $$(wc -l < $$out/unlinked) functions"

# loc prints the table every CHANGES.md entry reports: non-test and test
# Go lines of the root package, of each directory under internal/ and
# cmd/ (sub-packages included, testdata fixtures not), and of the bench/
# module. Line count is a tracked metric (ROADMAP aim 2): loc-check
# fails when the root module's non-test lines exceed LOC_MAX, or when
# DESIGN.md or EXPERIMENTS.md has more lines than its maximum, so the
# docs cannot regrow silently either. A PR that needs more raises the
# number in its own diff and says why in CHANGES.
LOC_MAX = 20635
DESIGN_MAX = 883
EXPERIMENTS_MAX = 1595

loc:
	@lines() { find $$1 $$2 -name '*.go' $$3 -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l; }; \
	printf '%-28s %9s %7s\n' package non-test test; \
	for d in . internal/* cmd/* bench; do \
		[ -d $$d ] || continue; \
		if [ $$d = . ]; then depth='-maxdepth 1'; else depth=; fi; \
		if [ $$d = bench ]; then printf '%-28s %9d %7d\n' 'root module' $$src $$tst; fi; \
		s=$$(lines $$d "$$depth" '!'); t=$$(lines $$d "$$depth" ''); \
		printf '%-28s %9d %7d\n' $$d $$s $$t; src=$$((src+s)); tst=$$((tst+t)); \
	done

loc-check:
	@$(MAKE) -s loc | awk -v max=$(LOC_MAX) '{ print } $$1 == "root" { n = $$3 } \
		END { if (n > max) { printf "loc-check: root module has %d non-test lines, LOC_MAX is %d\n", n, max; exit 1 } }'
	@for doc in DESIGN.md:$(DESIGN_MAX) EXPERIMENTS.md:$(EXPERIMENTS_MAX); do \
		f=$${doc%:*}; max=$${doc#*:}; n=$$(wc -l < $$f); printf '%-28s %9d lines, max %d\n' $$f $$n $$max; \
		if [ $$n -gt $$max ]; then echo "loc-check: $$f has $$n lines, its maximum is $$max"; exit 1; fi; \
	done

# check is the tier-1 gate: vet, the full test suite under the race
# detector (the sharded counters and parallel sweep runner are exercised
# concurrently by their tests; the goldens, determinism and lock tests
# hold the determinism and lock contracts, DESIGN §8), and the short
# chaos sweep.
check: vet race chaos-short

# race is the full test suite under the race detector.
race:
	$(GO) test -race ./...

# flake-hunt runs the root and internal/core tests N = 20 times over
# (`go test -count=20`) beside two busy-looping processes, the load under
# which tests that pass on an idle 2-vCPU box have failed, and prints
# how many of the 20 runs of each test failed (the whole log lands in
# flake-hunt.log). About 7 minutes on a 2-core machine; -timeout covers
# all 20 passes, as the default 10 minutes covers one. An interrupt or
# hangup exits through the EXIT trap, so the two loops never outlive the
# recipe (a non-interactive sh starts them with SIGINT ignored). No test
# bound or timeout is widened for it: a test it names is fixed, or goes
# on ROADMAP item 16's list.
flake-hunt:
	@yes >/dev/null & h1=$$!; yes >/dev/null & h2=$$!; \
	trap 'kill $$h1 $$h2' EXIT; trap 'exit 130' INT TERM HUP; \
	$(GO) test -count=20 -timeout 200m . ./internal/core/ >flake-hunt.log 2>&1; status=$$?; \
	grep -oE -- '--- FAIL: [^ ]+' flake-hunt.log | sort | uniq -c | sort -rn; \
	echo "flake-hunt: $$(grep -c -- '--- FAIL' flake-hunt.log) failed test runs in 20 passes"; \
	exit $$status

# fuzz-short runs each fuzz target of the wire format for ten seconds on
# top of its seed corpus (one populated sample per message layout, under
# internal/transport/testdata/fuzz; plain `go test` already runs those),
# ten seconds of the stores' hash table against a Go map (random
# insert/find/remove/compact sequences, some with every fingerprint
# colliding), ten seconds of Restore on snapshot files (in place of the
# group key's string parser, which snapshots no longer use: a file is
# refused, or restored into a state whose snapshot restores to the same
# bytes; this is trackd's start path), and ten seconds of the
# workload's radix sort by time against the stable sort
# (ties, and spans too wide to pack in one round). Not part of check: a
# finding lands in testdata/ and is fixed by hand.
fuzz-short:
	$(GO) test -run xxx -fuzz FuzzFrame -fuzztime 10s ./internal/transport/
	$(GO) test -run xxx -fuzz FuzzAuthFrame -fuzztime 10s ./internal/transport/
	$(GO) test -run xxx -fuzz FuzzTable -fuzztime 10s ./internal/probe/
	$(GO) test -run xxx -fuzz FuzzRestore -fuzztime 10s ./internal/core/
	$(GO) test -run xxx -fuzz FuzzSortByTime -fuzztime 10s ./internal/moods/

# chaos-short sweeps 500 seeded fault scenarios (4:1 safe:lossy) under
# the race detector, then runs the paired churn10x regression: 10
# permanent-crash schedules where Chord-only stabilization must fail
# the ring-reconverge invariant and the gossip membership layer must
# pass it within the budget. Any failure prints the seed; rerun it with
# `go run ./cmd/peertrack-chaos -seed N [-profile churn10x]`. The
# merged telemetry exposition of all scenarios lands in
# chaos-telemetry.txt — deterministic, so byte-diffing two runs of the
# same tree is a meaningful regression check.
chaos-short:
	$(GO) run -race ./cmd/peertrack-chaos -seeds 500 -telemetry chaos-telemetry.txt
	$(GO) run -race ./cmd/peertrack-chaos -profile churn10x -seeds 10

# chaos is the long sweep for soak runs.
chaos:
	$(GO) run -race ./cmd/peertrack-chaos -seeds 5000

# cluster-smoke launches a real 9-node trackd fleet on loopback and
# runs the live fault-injection smoke: SIGKILL the busiest node (factor
# 2 replicas + resilient RPC must lose zero reads), restart it with the
# same identity (chord rejoin + mirror-side replica restore), verify
# stale pooled-connection replacement and the per-node retry/breaker
# accounting identities, and shut the fleet down cleanly within the
# budget. The full run — SIGSTOP pause fault, sim-vs-live parity, and
# the factor-1 lost-reads baseline — is `go run ./cmd/peertrack-cluster`.
cluster-smoke:
	$(GO) run ./cmd/peertrack-cluster -smoke

# bench-module builds, vets and tests bench/, the repository benchmark
# (BENCHMARK.json). It is a Go module of its own that imports this one,
# so `go build ./...` here never compiles it: without this target a
# root-module API change that breaks the benchmark is first noticed by
# whoever runs it next.
bench-module:
	cd bench && $(GO) build ./... && $(GO) vet ./... && $(GO) test -race ./...

# micro runs just the package-level hot-path microbenchmarks, including
# the alloc-pinning store benchmarks behind the Scale.XL memory budget.
micro:
	$(GO) test -run xxx -bench 'BenchmarkTransportCall|BenchmarkStatsSnapshot' ./internal/transport/
	$(GO) test -run xxx -bench 'BenchmarkTCPCall' -benchmem ./internal/chord/ ./internal/core/
	$(GO) test -run xxx -bench 'BenchmarkLookup256' -benchmem ./internal/chord/
	$(GO) test -run xxx -bench 'BenchmarkKernel|BenchmarkBatchFanIn|BenchmarkHeapFanIn' ./internal/sim/
	$(GO) test -run xxx -bench 'BenchmarkGateway|BenchmarkIOP' ./internal/core/
	$(GO) test -run xxx -bench 'BenchmarkSpan' -benchmem ./internal/telemetry/
	$(GO) test -run xxx -bench 'BenchmarkPaperGenerate' -benchmem ./internal/workload/
	$(GO) test -run xxx -bench 'BenchmarkSimPaperLoad/128x500' -benchtime 20x -benchmem ./internal/core/
	$(GO) test -run xxx -bench 'BenchmarkSimPaperRun/128x500' -benchtime 3x -benchmem ./internal/core/
	$(GO) test -run xxx -bench 'BenchmarkSimPaperTrace' -benchtime 20000x -benchmem ./internal/core/
	$(GO) test -run xxx -bench 'RoundTrip|NetHTTPFloor' -benchmem ./internal/ctlapi/

# profile-sim writes cpu.pprof and mem.pprof of the sim-paper phases —
# load (generate, build, schedule) and Run — trace-cpu.pprof and
# trace-mem.pprof of 300 000 trace queries (≈ 2 s of samples), and
# run-heap.pprof, whose inuse_space is what one network keeps after its
# Run, by allocation site, at the repository benchmark's size, without
# the bench module; inspect with `go tool pprof bin/core.test cpu.pprof`
# (`-sample_index=inuse_space -top` for run-heap.pprof).
profile-sim:
	$(GO) test -run xxx -bench 'BenchmarkSimPaper(Load|Run)/128x500' -benchtime 5x -o bin/core.test \
		-cpuprofile cpu.pprof -memprofile mem.pprof ./internal/core/
	$(GO) test -run xxx -bench 'BenchmarkSimPaperTrace' -benchtime 300000x -o bin/core.test \
		-cpuprofile trace-cpu.pprof -memprofile trace-mem.pprof ./internal/core/
	$(GO) test -run xxx -bench 'BenchmarkSimPaperRun/128x500' -benchtime 1x -o bin/core.test \
		-memprofile run-heap.pprof -memprofilerate 1 ./internal/core/

# profile captures CPU and heap pprof profiles of the XL throughput
# sweep at a CI-sized network; inspect with `go tool pprof cpu.pprof`.
profile: build
	$(GO) run ./cmd/peertrack-bench -fig xl -scale xl -sizes 20000 -queries 10 \
		-cpuprofile cpu.pprof -memprofile mem.pprof

# xl runs the full Scale.XL sweep: 10k/20k/50k nodes, 2M tracked
# objects at the top point. Expect several minutes and a few GB of RSS;
# see EXPERIMENTS.md for reference timings.
xl: build
	$(GO) run ./cmd/peertrack-bench -fig xl -scale xl

# figures prints every reproduced figure at laptop scale.
figures:
	$(GO) run ./cmd/peertrack-bench -fig all -scale default

# telemetry-demo runs a grouped workload and dumps the whole-stack
# instrument snapshot plus recent query spans — the quickest way to see
# what the telemetry registry records.
telemetry-demo:
	$(GO) run ./cmd/peertrack-bench -fig telemetry -scale tiny
