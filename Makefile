# Development gates for the kernelcv workspace. Everything runs offline
# against the vendored path dependencies (see vendor/), so no registry
# access is needed.

CARGO ?= cargo
FLAGS ?= --offline

.PHONY: verify fmt build test test-release test-metrics doc clippy perf-gate examples perfbench-smoke scaling streaming serve memory-limit loc clean

## The full PR gate: formatting, build, tests with metrics off AND on,
## the core suite in release, docs, lints, the counter-based performance
## gate, and one run of every example. (The d = 2 "Multi fast" check
## against the naive full-grid oracle is a unit test in kcv-bench.)
verify: fmt build test test-release test-metrics doc clippy perf-gate examples
	@echo "verify: all gates green"

## rustfmt over every workspace member. Plain `cargo fmt` (not `--all`,
## which follows path dependencies into vendor/): the vendored stand-ins
## and the perfbench/ workspace are outside this workspace.
fmt:
	$(CARGO) fmt --check

build:
	$(CARGO) build $(FLAGS) --workspace --release

test:
	$(CARGO) test $(FLAGS) --workspace -q

## The core suite, the service and the simulated GPU as they ship,
## optimised: the prefix sweep's AVX2 and AVX-512 lanes and the windowed
## kernel's AVX2 lanes are unsafe code, the service's bit-identity suite
## (crates/serve/tests/determinism.rs) re-selects through the sweep's
## lanes, the simulator's bit-identity goldens
## (crates/gpu/tests/device_golden.rs) must hold for the optimised kernel,
## the simulator's host heap bound (crates/bench/tests/gpu_host_heap.rs)
## must hold as it ships, and debug builds do not run what release builds
## run.
test-release:
	$(CARGO) test $(FLAGS) --release -p kcv-core -p kcv-serve -p kcv-gpu-sim -p kcv-gpu -q
	$(CARGO) test $(FLAGS) --release -p kcv-bench --test gpu_host_heap -q

## The observability layer changes what compiles; test both feature states.
## Counters are scoped per `kcv_obs::Recorder`, so the metrics suite runs
## deliberately multi-threaded — no cross-test serialisation.
test-metrics:
	$(CARGO) test $(FLAGS) --workspace --features metrics -q -- --test-threads=8

doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc $(FLAGS) --workspace --no-deps

clippy:
	$(CARGO) clippy $(FLAGS) --workspace --all-targets -- -D warnings
	$(CARGO) clippy $(FLAGS) --workspace --all-targets --features metrics -- -D warnings

## Counter-based perf gate: 18 named complexity contracts (prefix, windowed
## GPU, bagged, multivariate, streaming and serving engines) asserted from
## the collected report, which it also writes to results/BENCH_report.json
## (the one writer of that file); the list, and why each bound is what it
## is, lives in crates/bench/src/bin/perf_gate.rs.
perf-gate:
	$(CARGO) run $(FLAGS) --release -p kcv-bench --features metrics \
		--bin perf_gate -- --n 2000 --k 100

## Prints the number of non-test lines of Rust under crates/*/src (the
## line count ROADMAP.md tracks): each file counts up to its first
## `#[cfg(test)]` that opens a `mod`. A test-only item outside a test
## module, such as an impl, does not end the count.
loc:
	@find crates/*/src -name '*.rs' | sort | xargs awk ' \
		FNR == 1 { cut = 0; prev = "" } \
		!cut && prev ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$$/ && /^[ \t]*(pub(\([a-z]+\))? )?mod / { cut = 1; n-- } \
		!cut { n++ } \
		{ prev = $$0 } \
		END { print n " non-test lines under crates/*/src" }'

## Runs every example under examples/ once in release; `cargo test` only
## compiles them. An example that panics or exits non-zero fails the target.
EXAMPLES = $(sort $(basename $(notdir $(wildcard examples/*.rs))))
examples:
	@set -e; for e in $(EXAMPLES); do \
		echo "== example $$e"; \
		$(CARGO) run $(FLAGS) --release -q --example $$e; \
	done

## The repository benchmark's own smoke tests (perfbench/tests/smoke.rs),
## untraced and traced: the two BENCHMARK.json workloads at smoke size plus
## the two tests pinning BENCHMARK.json and workloads.json to the metric
## table. serve_steady_smoke is left out: its open loop paces arrivals by
## the wall clock, so its checks depend on host timing, and serve-steady
## is not a BENCHMARK.json workload.
PERFBENCH_SMOKE = oneshot_smoke serve_burst_smoke \
	workloads_json_is_the_describe_output benchmark_json_lists_exactly_the_metric_table
perfbench-smoke:
	$(CARGO) test $(FLAGS) --release --manifest-path perfbench/Cargo.toml -- $(PERFBENCH_SMOKE)
	$(CARGO) test $(FLAGS) --release --manifest-path perfbench/Cargo.toml --features metrics \
		-- $(PERFBENCH_SMOKE)

## The past-the-paper scaling study (EXPERIMENTS.md SCALE): bagged CV at
## n = 10^5..10^7 vs the full-data prefix reference, with the binary's own
## acceptance checks as the gate. Writes results/scaling.csv (CI uploads
## it).
## Full run (full-data reference up to 10^6) takes ~30 s in release.
scaling:
	$(CARGO) run $(FLAGS) --release -p kcv-bench --bin scaling

## The streaming replay study (EXPERIMENTS.md STREAM): 10^5 paper-DGP
## arrivals through the sliding window (W = 10^4), each re-selection the
## prefix sweep over the window, at a sweep of re-selection cadences,
## against the sampled-and-extrapolated
## per-arrival recompute baseline. The binary's own checks (>= 10x at
## every cadence >= 64, bit-identical final bandwidth) gate the run;
## writes results/streaming.csv (CI uploads it). Takes ~60 s in release.
streaming:
	$(CARGO) run $(FLAGS) --release -p kcv-bench --bin streaming

## The sharded serving study (EXPERIMENTS.md SERVE): 256 concurrent
## paper-DGP streams x 10^4 arrivals each through the 8-shard
## kcv-serve front-end vs one global lock around a stream map. The
## binary's own checks gate the run (>= 4x throughput, per-stream final
## bandwidths bit-identical to sequential replay, lossless delivery,
## zero kernel evals with bursts coalesced); writes results/serve.csv
## (CI uploads it). Takes ~45 s in release.
serve:
	$(CARGO) run $(FLAGS) --release -p kcv-bench --features metrics --bin serve

## The paper's resource ceilings (EXPERIMENTS.md MEMLIM): the classic
## program's allocation set fits at n = 23 000 and not at 24 000, the
## constant cache holds 2 048 bandwidths and rejects 2 049, and the windowed
## program runs every size up to 30 000 and agrees with the f64 CPU
## reference. The binary exits non-zero unless all three hold.
memory-limit:
	$(CARGO) run $(FLAGS) --release -p kcv-bench --bin memory_limit -- --max-windowed-n 30000

clean:
	$(CARGO) clean
