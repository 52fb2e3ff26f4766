# Development gates for the kernelcv workspace. Everything runs offline
# against the vendored path dependencies (see vendor/), so no registry
# access is needed.

CARGO ?= cargo
FLAGS ?= --offline

.PHONY: verify fmt build test test-metrics doc clippy perf-gate perfbench-smoke scaling streaming serve clean

## The full PR gate: formatting, build, tests with metrics off AND on,
## docs, lints, and the counter-based performance gate. (The d = 2 "Multi
## fast" check against the naive full-grid oracle is a unit test in
## kcv-bench.)
verify: fmt build test test-metrics doc clippy perf-gate
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

clean:
	$(CARGO) clean
