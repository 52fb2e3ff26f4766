#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the `kcv-perfbench` package
from source in release mode (untraced build, and with `--trace 1` also the
`metrics` build) under `$CARGO_TARGET_DIR` (default `.bench_build`), runs
the workload, and prints one JSON result object as the last line of
standard output.

With `--trace 1` it first runs the untraced build with the same seed and
duration, to get the reference value the traced run's
`trace.overhead_frac` compares against, then the traced build, whose spans
go to `.bench_out/spans/<workload>-seed<seed>.jsonl`.

Exits non-zero without printing a result when the build fails, the
arguments are wrong, or the run is invalid.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("oneshot", "serve-steady", "serve-burst")
RUN_TIMEOUT_S = 170


def build(target_dir, traced):
    """Builds the benchmark binary; returns its path."""
    cmd = [
        "cargo", "build", "--offline", "--release", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--target-dir", target_dir,
    ]
    if traced:
        cmd += ["--features", "metrics"]
    # Build output goes to stderr: stdout carries only the result.
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    return os.path.join(target_dir, "release", "kcv-perfbench")


def run(binary, args):
    """Runs the binary; returns its stdout lines."""
    proc = subprocess.run(
        [binary] + args, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{os.path.basename(binary)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError("benchmark printed no result")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    opts = parser.parse_args()

    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    common = ["--workload", opts.workload, "--seed", str(opts.seed), "--seconds", str(opts.seconds)]
    try:
        plain = build(os.path.join(base, "plain"), traced=False)
        if not opts.trace:
            lines = run(plain, common + ["--trace", "0"])
        else:
            traced = build(os.path.join(base, "traced"), traced=True)
            info = json.loads(run(plain, common + ["--trace", "0"])[-2])
            reference = info["overhead_reference"]["value"]
            spans = os.path.join(".bench_out", "spans", f"{opts.workload}-seed{opts.seed}.jsonl")
            lines = run(
                traced,
                common + ["--trace", "1", "--overhead-ref", repr(reference), "--spans-out", spans],
            )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, RuntimeError, OSError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
