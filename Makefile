# Standard local CI for the repository. `make` runs the full gate.

GO ?= go

.PHONY: all build vet fmtcheck test race bench bench-smoke loadgen-smoke doccheck linkcheck serve serve-recover clean

all: build vet fmtcheck test race doccheck

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail if any Go file is not gofmt-clean, naming the files.
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l: not gofmt-clean:"; echo "$$out"; exit 1; fi

test:
	$(GO) test -shuffle=on ./...

# The concurrency-sensitive layers under the race detector: the serving
# engine (core.Server, epochs, recovery), the region manager, the coherence
# directory its shared accesses lock, and the two packages its access path
# reads without a lock of their own (topology routes, memsim device
# counters), the fault injector/stores, the telemetry
# registry, the cluster, and the scheduler, load generator, placement
# optimizer and job graph the server calls from several goroutines; the
# paper artifacts and the access planner, which drive clock views by hand;
# and what drives Server and Cluster from outside: the facade, examples and
# design checks (.), the CLI goldens, streams and workloads.
race:
	$(GO) test -race ./internal/core/... ./internal/region/... ./internal/coherence/... ./internal/allocator/... \
		./internal/topology/... ./internal/memsim/... \
		./internal/fault/... ./internal/telemetry/... ./internal/cluster/... ./internal/shard/... \
		./internal/sched/... ./internal/loadgen/... ./internal/placement/... ./internal/dataflow/... \
		./internal/paper/... ./internal/planner/... \
		. ./cmd/disaggsim/... ./internal/stream/... ./internal/workload/...

bench:
	$(GO) test -bench=. -benchmem ./...

# Fixed-count runs of the engine's cost and exact-count benchmarks, each
# captured to BENCH_<name>.json (the previous local capture is kept as
# BENCH_<name>_before.json) and gated by benchgate against the committed
# bench/BENCH_<name>_baseline.json. No gated benchmark body sleeps, so no gate
# reads host speed beyond what a cost tolerates; throughput is gated by
# benchmark/, which runs alternating pairs. Every unit carries its own
# tolerance:
#   - costs (ns/op:2, allocs/op:0, B/op): time per operation may not triple,
#     allocations per operation may not rise at all, and bytes only by what
#     the row allows — a payload-sized buffer per operation is far beyond it.
#     served, dag and routed are the engine's whole cost of a served job (the
#     nil-body mix, a fan-out-16 wave at pool sizes 1 and 4, the mix routed
#     through a 2-shard cluster with checkpoints and injected faults), each
#     after an untimed ramp that also checks reports against solo runs; the
#     rest are the region, coherence, placement, planner, graph, span-record
#     and checkpoint paths underneath. recover's restored-B/op is the bytes a
#     retry fetches back, under full and under partial replay.
#   - exact counts (:0): stream's windows that retire at the solo runs'
#     virtual watermark, migrate's regions exported and recalled per wave.
#
# One row per captured run, name:package:benchmark regexp:benchtime:gate,
# where gate is benchgate's -metrics list (it holds colons of its own, so it
# is the last field). Every row is captured before any is gated.
SMOKE_BENCHES = \
	'recover:core:BenchmarkRecoverPartial:2x:restored-B/op:0,B/op:0.1' \
	'checkpoint:fault:BenchmarkReplicatedPut:20000x:ns/op:2,allocs/op:0,B/op:1' \
	'stream:core:BenchmarkStreamServe:2x:solo-identical-windows/op:0' \
	'migrate:shard:BenchmarkClusterRebalance:2x:exported/op:0,recalled/op:0' \
	'region:region:BenchmarkRegionAccess|BenchmarkAllocRelease|BenchmarkTransferZeroCopy:200000x:ns/op:2,allocs/op:0' \
	'served:core:BenchmarkServedJob|BenchmarkServedJobClosedLoop:20000x:ns/op:2,allocs/op:0' \
	'dag:core:BenchmarkServedWideDAG:20000x:ns/op:2,allocs/op:0' \
	'routed:shard:BenchmarkRoutedJob:20000x:ns/op:2,allocs/op:0' \
	'graph:dataflow:BenchmarkResolveFreshJob:20000x:ns/op:2,allocs/op:0' \
	'coherence:coherence:BenchmarkDropRegion|BenchmarkReadHit|BenchmarkDirectoryRange:200000x:ns/op:2,allocs/op:0' \
	'place:placement:BenchmarkPlaceEpoch:200000x:ns/op:2,allocs/op:0' \
	'plan:sched:BenchmarkHEFT|BenchmarkEstimateJob:20000x:ns/op:2,allocs/op:0' \
	'telemetry:telemetry:BenchmarkRecord:200000x:ns/op:2,allocs/op:0,B/op:0'

bench-smoke: loadgen-smoke
	@set -e; for spec in $(SMOKE_BENCHES); do \
		name=$${spec%%:*}; rest=$${spec#*:}; pkg=$${rest%%:*}; rest=$${rest#*:}; \
		re=$${rest%%:*}; rest=$${rest#*:}; n=$${rest%%:*}; f=BENCH_$$name.json; \
		if [ -f $$f ]; then cp $$f BENCH_$${name}_before.json; fi; \
		echo "$(GO) test -run XXX -bench '$$re' -benchtime $$n -benchmem -json ./internal/$$pkg/ > $$f"; \
		$(GO) test -run XXX -bench "$$re" -benchtime $$n -benchmem -json ./internal/$$pkg/ > $$f; \
		grep -o '"Output":"Benchmark[^"]*' $$f | head -20 || true; \
	done; \
	for spec in $(SMOKE_BENCHES); do \
		name=$${spec%%:*}; rest=$${spec#*:*:*:*:}; \
		echo "$(GO) run ./cmd/benchgate -baseline bench/BENCH_$${name}_baseline.json -current BENCH_$$name.json -metrics $$rest"; \
		$(GO) run ./cmd/benchgate -baseline bench/BENCH_$${name}_baseline.json -current BENCH_$$name.json -metrics "$$rest"; \
	done

# Seconds-scale fixed-seed open-loop serving smoke: 4k submissions against
# the SLO admission gate, replayed twice — the run itself fails if the two
# replays' admission decisions diverge. The gated metrics (admitted,
# slo-met) are deterministic counts for the fixed seed, so each is gated at
# zero tolerance and the gate is immune to machine speed.
loadgen-smoke:
	$(GO) run ./cmd/loadgen -n 4000 -seed 42 -rho 1.5 -deadline 40us -repeat 2 \
		-bench-out BENCH_loadgen.json
	$(GO) run ./cmd/benchgate -baseline bench/BENCH_loadgen_baseline.json \
		-current BENCH_loadgen.json -metrics admitted:0,slo-met:0
	$(GO) run ./cmd/loadgen -n 4000 -seed 42 -rho 1.5 -deadline 40us -real -1 \
		-repeat 2 -shards 2 -bench-out BENCH_loadgen_shard.json
	$(GO) run ./cmd/benchgate -baseline bench/BENCH_loadgen_shard_baseline.json \
		-current BENCH_loadgen_shard.json -metrics admitted:0,slo-met:0

# Fail if any exported identifier in the facade package lacks a doc comment.
doccheck:
	$(GO) run ./cmd/doccheck .

# Where the linker put math/rand.(*rngSource).Int63 in the benchmark binary.
# At an address of 0 mod 64, stream_windows setup_s reads 20-25 % higher with
# no code change (EXPERIMENTS.md A18), and any change in size of the packages
# linked just before math/rand (memsim through sched) moves it. Builds
# ./benchmark to a temporary path as benchmark/run.sh does, prints the address,
# and fails unless it is 32 mod 64. Not part of all: alignment is not a
# correctness property, but a benchmarked commit should pass it, so CI runs it
# as a step of its own.
linkcheck:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/benchmark" ./benchmark; \
	addr=$$($(GO) tool nm "$$dir/benchmark" | awk '$$3 == "math/rand.(*rngSource).Int63" { print $$1 }'); \
	if [ -z "$$addr" ]; then echo "linkcheck: math/rand.(*rngSource).Int63 not in the benchmark binary"; exit 1; fi; \
	mod=$$(( 0x$$addr % 64 )); \
	echo "math/rand.(*rngSource).Int63 at 0x$$addr (mod 64 = $$mod)"; \
	if [ $$mod -ne 32 ]; then echo "linkcheck: want 32 mod 64 (EXPERIMENTS.md A18)"; exit 1; fi

# Smoke-run the admission-controlled serving mode.
serve:
	$(GO) run ./cmd/disaggsim -serve -jobs 16 -workers 4

# Smoke-run fault-tolerant serving: injected faults, checkpointed recovery.
serve-recover:
	$(GO) run ./cmd/disaggsim -serve -jobs 16 -workers 4 -recover -faultrate 0.4 -maxattempts 8

clean:
	$(GO) clean ./...
