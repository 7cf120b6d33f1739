# Capacity Bound-free Web Warehouse — build targets.

GO ?= go

.PHONY: all build test race cover bench bench-read bench-store bench-serve bench-admit loc tables matrix matrix-check matrix-baseline serve faults soak fuzz cluster chaos examples clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# One regeneration of every experiment under the bench harness, plus the
# storage-tier benchmarks.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x . ./internal/storage

# Read-path microbenchmarks over the populated 5k-page world — the numbers
# behind bench_tables.txt's "read path" table (event-driven hot index +
# allocation-light top-k). Paste the output over the table when it moves.
bench-read:
	$(GO) test -bench Populated -benchmem -benchtime=2s -run '^$$' .

# Storage-tier microbenchmarks: streaming read cost per serving tier over
# the all-in-heap, file-backed and mmap-middle stacks — the numbers behind
# bench_tables.txt's "storage engine" table.
bench-store:
	$(GO) test -bench AccessByTier -benchmem -benchtime=2s -run '^$$' ./internal/storage/

# Serve-path gate: the warm heap-tier GET /body benchmark plus the
# allocs/op ceiling test — fails when the zero-copy serve path regresses
# to materializing bodies — and BenchmarkServeBodyTCP, a 256 KiB GET /body
# per tier (memory, mmap, disk, tertiary) over a loopback socket, the cost
# a discarding writer hides: disk and segment bodies leave by sendfile.
# CI runs this in the bench-smoke job.
bench-serve:
	$(GO) test -bench 'ServeBody$$|ServeBodyTCP' -benchmem -benchtime=100x \
		-run 'ServeBodyHeapAllocCeiling|HeapStreamAllocs' \
		./internal/gateway/ ./internal/storage/

# Write-path gate, the mirror of bench-serve: one 8 KiB admission into a
# standing population of 1k and of 16k objects (tiers with room, tiers
# full) and a first-sight Get on one shard, serial and parallel — plus the
# tests that fail when admission cost starts to follow the population (one
# object decided per admission at either size) or the page is tokenized
# more than once (allocs/op ceiling). Then a restart's restore of 1,920
# pages on one core and on two: one restore is a whole second, so it runs
# a few times, not 2,000. CI runs this in the bench-smoke job.
bench-admit:
	$(GO) test -bench 'AdmitAtPopulation|AdmitNew' -benchmem -benchtime=2000x \
		-run 'AdmissionVisitsOnlyWhatItDisplaces|AdmitNewAllocCeiling' \
		./internal/storage/ ./internal/warehouse/
	$(GO) test -bench 'Rehydrate' -benchmem -benchtime=3x -cpu 1,2 -run '^$$' ./internal/warehouse/

# Non-test Go lines per package under internal/ and cmd/, and their total:
# the yardstick for "less code". Then the daemon's closure: the non-test
# lines of every non-standard package cmd/cbfww-serve builds from.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' -exec wc -l {} + | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", t }'
	@$(GO) list -deps -f '{{if not .Standard}}{{range .GoFiles}}{{$$.Dir}}/{{.}} {{end}}{{end}}' ./cmd/cbfww-serve | \
		xargs cat | wc -l | awk '{ printf "%6d cmd/cbfww-serve closure\n", $$1 }'

# Paper tables via the CLI (same experiments, readable output).
tables:
	$(GO) run ./cmd/cbfww-bench

# The scenario-matrix regression rig (internal/scenario). `matrix` runs
# the curated default matrix and emits BENCH_default.json + the table;
# `matrix-check` gates a fresh run of both specs against the checked-in
# baselines; `matrix-baseline` regenerates the baselines (commit the diff
# when numbers move intentionally).
MATRIX ?= scenarios/default.toml
matrix:
	$(GO) run ./cmd/cbfww-bench -matrix $(MATRIX)

matrix-check:
	$(GO) run ./cmd/cbfww-bench -matrix scenarios/smoke.toml -check -baseline scenarios/smoke.baseline.json
	$(GO) run ./cmd/cbfww-bench -matrix scenarios/default.toml -check -baseline scenarios/default.baseline.json

matrix-baseline:
	$(GO) run ./cmd/cbfww-bench -matrix scenarios/smoke.toml -out scenarios/smoke.baseline.json -tables ""
	$(GO) run ./cmd/cbfww-bench -matrix scenarios/default.toml -out scenarios/default.baseline.json -tables ""

# The warehouse as a network daemon in front of a generated web, both on
# loopback: cbfww-loadgen serves the web as the origin, cbfww-serve
# fetches through it (ctrl-C drains the daemon; the origin stops with it).
# The binaries are built into .serve_build/.
ORIGIN ?= 127.0.0.1:9000
serve:
	$(GO) build -o .serve_build/ ./cmd/cbfww-loadgen ./cmd/cbfww-serve
	.serve_build/cbfww-loadgen -sites 8 -pages 25 -serve $(ORIGIN) & trap 'kill $$! 2>/dev/null' EXIT; \
		.serve_build/cbfww-serve -origin $(ORIGIN)

# Fault-injection drill: the daemon against a flaky / blacked-out origin.
faults:
	$(GO) test -race -v -run 'Fault|Blackout|Retries|Degrade|Stale' \
		./internal/gateway ./internal/warehouse ./internal/simweb ./cmd/cbfww-serve

# Concurrency soak: the sharded warehouse oracle and the gateway under
# fault-injecting load, twice each, under the race detector.
soak:
	$(GO) test -race -count=2 -run 'Oracle|Soak|Concurrent' \
		./internal/warehouse ./internal/gateway

# Multi-node drill: the peer ring's unit tests plus the three-daemon
# integration test (real sockets, fault-injecting origin, owner killed
# mid-test), all under the race detector.
cluster:
	$(GO) test -race -v -run 'Cluster|Ring|Peer|Proxy|Forwarded|Redirect|Owners|Healthz' \
		./internal/peers ./internal/gateway ./cmd/cbfww-serve

# Replication chaos drill: replica sets, health prober, hinted handoff,
# and the kill/restart integration test (three daemons, R=2, a replica
# killed mid-workload and restarted), all under the race detector.
chaos:
	$(GO) test -race -v -run 'Chaos|Handoff|Health|Prober|Owners|Replica' \
		./internal/peers ./internal/gateway ./internal/warehouse ./cmd/cbfww-serve

# Native fuzzing of the code that sees bytes it did not just write: the
# query lexer/parser, the stored page payload, the peer frame, the
# tokenizer's term counts, the HTML page parser and segment-log replay
# (30s per target; crank FUZZTIME for a longer hunt).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime $(FUZZTIME) -run '^$$' ./internal/query/
	$(GO) test -fuzz FuzzRunString -fuzztime $(FUZZTIME) -run '^$$' ./internal/query/
	$(GO) test -fuzz FuzzDecodePageStream -fuzztime $(FUZZTIME) -run '^$$' ./internal/warehouse/
	$(GO) test -fuzz FuzzReadFrame -fuzztime $(FUZZTIME) -run '^$$' ./internal/peers/
	$(GO) test -fuzz FuzzTermCounts -fuzztime $(FUZZTIME) -run '^$$' ./internal/text/
	$(GO) test -fuzz FuzzCountsMatchTermCounts -fuzztime $(FUZZTIME) -run '^$$' ./internal/text/
	$(GO) test -fuzz FuzzParsePage -fuzztime $(FUZZTIME) -run '^$$' ./internal/crawl/
	$(GO) test -fuzz FuzzSegmentReplay -fuzztime $(FUZZTIME) -run '^$$' ./internal/storage/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/loganalysis
	$(GO) run ./examples/hotspotnews
	$(GO) run ./examples/socialnav
	$(GO) run ./examples/crawler
	$(GO) run ./examples/proxywarehouse

clean:
	$(GO) clean -testcache
