# Standard local CI for the repository. `make` runs the full gate.

GO ?= go

.PHONY: all build vet test race bench bench-smoke loadgen-smoke doccheck serve serve-recover clean

all: build vet test race doccheck

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The concurrency-sensitive layers under the race detector: the serving
# engine (core.Server, epochs, recovery), the region manager, the coherence
# directory its shared accesses lock, and the two packages its access path
# reads without a lock of their own (topology routes, memsim device
# counters), the fault injector/stores, the telemetry
# registry, the cluster, and the scheduler, load generator, placement
# optimizer and job graph the server calls from several goroutines.
race:
	$(GO) test -race ./internal/core/... ./internal/region/... ./internal/coherence/... \
		./internal/topology/... ./internal/memsim/... \
		./internal/fault/... ./internal/telemetry/... ./internal/cluster/... ./internal/shard/... \
		./internal/sched/... ./internal/loadgen/... ./internal/placement/... ./internal/dataflow/...

bench:
	$(GO) test -bench=. -benchmem ./...

# Short-mode smoke of the wavefront-executor benchmarks (wide-DAG speedup
# curve + serving path), with machine-readable results for CI artifacts.
# Each sub-benchmark also asserts the virtual makespan is identical across
# pool sizes, so this doubles as a determinism gate. The committed
# bench/BENCH_*_baseline.json captures are the before; the fresh run is the
# after (previous local runs are kept as BENCH_*_before.json), and benchgate
# fails the target when a gated unit regressed against the baseline: serve
# throughput by more than 10% (override with BENCHGATE_TOLERANCE). The stream
# benchmark is gated on its exact metric instead — the windows that retire at
# the solo runs' virtual watermark — because its windows/s at 2x is
# wall-clock noise; exact metrics carry their zero tolerance in the unit,
# where BENCHGATE_TOLERANCE does not reach. The recovery benchmark is gated on
# its exact metric too, and that one is a cost: the bytes a retry fetches back
# from the checkpoint store, under full and under partial replay, may not grow
# by one, nor the bytes it allocates by a tenth (one payload-sized buffer per
# task is a fifth). The region access, coherence directory, placement, planner
# and checkpoint micro-benchmarks are gated the other way round — their units are
# costs: time per operation may not triple, and allocations per operation may
# not rise at all; a checkpoint's put → delete cycle may not double its bytes
# either, which one payload-sized buffer per operation would do fifty times over. The region benchmark's parallel case runs at one core and
# at two, each its own gated row, so the baseline shows that the second core
# does not make an access dearer; a region's allocate → release cycle and its
# zero-copy transfer are gated with the accesses. The served row is the
# engine's whole cost of a job — the nil-body serving mix through a Server,
# no task body stalling anywhere, timed after a ramp that fills the free
# lists — gated as a cost too: the serving gate no sleep bounds.
#
# One row per captured run, name:package:benchmark regexp:benchtime[:gate],
# written to BENCH_<name>.json. The gate, when there is one, is benchgate's
# -metrics list (it holds colons of its own, so it is the last field) against
# bench/BENCH_<name>_baseline.json. Every row is captured before any is gated.
SMOKE_BENCHES = \
	'parallel:core:BenchmarkWideDAGParallel|BenchmarkServeParallel:2x' \
	'serve:core:BenchmarkServeOverlap:2x:jobs/s' \
	'recover:core:BenchmarkRecoverPartial:2x:restored-B/op:0,B/op:0.1' \
	'checkpoint:fault:BenchmarkReplicatedPut:20000x:ns/op:2,allocs/op:0,B/op:1' \
	'shard:shard:BenchmarkServeSharded:2x:jobs/s,speedup' \
	'stream:core:BenchmarkStreamServe:2x:solo-identical-windows/op:0' \
	'migrate:shard:BenchmarkClusterRebalance:2x:exported/op:0,recalled/op:0' \
	'region:region:BenchmarkRegionAccess|BenchmarkAllocRelease|BenchmarkTransferZeroCopy:200000x:ns/op:2,allocs/op:0' \
	'served:core:BenchmarkServedJob:20000x:ns/op:2,allocs/op:0' \
	'coherence:coherence:BenchmarkDropRegion|BenchmarkReadHit|BenchmarkDirectoryRange:200000x:ns/op:2,allocs/op:0' \
	'place:placement:BenchmarkPlaceEpoch:200000x:ns/op:2,allocs/op:0' \
	'plan:sched:BenchmarkHEFT|BenchmarkEstimateJob:20000x:ns/op:2,allocs/op:0'

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
		name=$${spec%%:*}; rest=$${spec#*:*:*:}; \
		case $$rest in *:*) ;; *) continue ;; esac; \
		echo "$(GO) run ./cmd/benchgate -baseline bench/BENCH_$${name}_baseline.json -current BENCH_$$name.json -metrics $${rest#*:}"; \
		$(GO) run ./cmd/benchgate -baseline bench/BENCH_$${name}_baseline.json -current BENCH_$$name.json -metrics "$${rest#*:}"; \
	done

# Seconds-scale fixed-seed open-loop serving smoke: 4k submissions against
# the SLO admission gate, replayed twice — the run itself fails if the two
# replays' admission decisions diverge. The gated metrics (admitted,
# slo-met) are deterministic counts for the fixed seed, so benchgate runs
# at zero tolerance and the gate is immune to machine speed.
loadgen-smoke:
	$(GO) run ./cmd/loadgen -n 4000 -seed 42 -rho 1.5 -deadline 40us -repeat 2 \
		-bench-out BENCH_loadgen.json
	$(GO) run ./cmd/benchgate -baseline bench/BENCH_loadgen_baseline.json \
		-current BENCH_loadgen.json -metrics admitted,slo-met -tolerance 0
	$(GO) run ./cmd/loadgen -n 4000 -seed 42 -rho 1.5 -deadline 40us -real -1 \
		-repeat 2 -shards 2 -bench-out BENCH_loadgen_shard.json
	$(GO) run ./cmd/benchgate -baseline bench/BENCH_loadgen_shard_baseline.json \
		-current BENCH_loadgen_shard.json -metrics admitted,slo-met -tolerance 0

# Fail if any exported identifier in the facade package lacks a doc comment.
doccheck:
	$(GO) run ./cmd/doccheck .

# Smoke-run the admission-controlled serving mode.
serve:
	$(GO) run ./cmd/disaggsim -serve -jobs 16 -workers 4

# Smoke-run fault-tolerant serving: injected faults, checkpointed recovery.
serve-recover:
	$(GO) run ./cmd/disaggsim -serve -jobs 16 -workers 4 -recover -faultrate 0.4 -maxattempts 8

clean:
	$(GO) clean ./...
