#!/usr/bin/env python3
"""End-to-end search benchmark: build, generate inputs, measure.

Builds the e2e_bench binary from the repository's sources (first run only),
generates the workload's inputs from --seed, runs the measurement and prints
the result JSON as the last line of stdout:

    python3 e2e_bench/run.py --workload rearrange-serial --seed 1 \
        --seconds 20 --trace 0

Run it from the repository root. Every answer is checked against the serial
reference stored in e2e_bench/refs/. Build products, generated inputs,
adopted references, result records and Chrome traces go to .bench_build/.
See e2e_bench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
STORED_REFS = BENCH_DIR / "refs"
# One run must end within 180 s; the binary gets what is left of it.
RUN_DEADLINE_S = 175.0
BUILD_TIMEOUT_S = 850.0
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=1):
    print(f"e2e_bench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    """Configures (once) and builds the binary; returns its path."""
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"no product sources under {root} (need CMakeLists.txt and src/)", 2)
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "e2e_bench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as error:
                fail(f"build step {step[:2]} failed: {error}")
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (see {log_path})")
    binary = build_dir / "e2e_bench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def call(binary, *args, timeout=60.0):
    done = subprocess.run([str(binary), *args], stdout=subprocess.PIPE,
                          timeout=timeout, check=False, text=True)
    if done.returncode != 0:
        fail(f"{binary.name} {args[0]} exited with {done.returncode}")
    return done.stdout


def instance_seeds(seed, instances):
    """Distinct odd seeds per (seed, instance): make_paper_like_dataset and
    the search both map an even seed to the next odd one."""
    return [2 * (seed * instances + k) + 1 for k in range(instances)]


def make_inputs(binary, build_dir, taxa, sites, seeds):
    data_dir = build_dir / "inputs"
    data_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for s in seeds:
        path = data_dir / f"{taxa}x{sites}-{s}.phy"
        if not path.is_file():
            tmp = path.with_suffix(".tmp")
            call(binary, "gen", f"--taxa={taxa}", f"--sites={sites}",
                 f"--seed={s}", f"--out={tmp}")
            os.replace(tmp, path)
        paths.append(path)
    return paths


def workload_spec(binary, workload):
    """The workload's input shape; fails on a name the binary does not know."""
    names = call(binary, "list").split()
    if workload not in names:
        fail(f"unknown workload {workload!r} (choose from {', '.join(names)})", 2)
    return json.loads(call(binary, "spec", f"--workload={workload}"))


def check_result(line):
    result = json.loads(line)
    if set(result) != RESULT_KEYS or not isinstance(result["metrics"], dict):
        raise ValueError("result keys")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted")
    return result


def main():
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Input-size and stored-reference overrides for the benchmark's
    # self-tests (tiny inputs, doctored references).
    parser.add_argument("--taxa", type=int)
    parser.add_argument("--sites", type=int)
    parser.add_argument("--refs", type=Path, default=STORED_REFS)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    root = Path.cwd()
    build_dir = root / ".bench_build" / "e2e_bench"
    binary = build(root, build_dir)

    spec = workload_spec(binary, args.workload)
    taxa = args.taxa or spec["taxa"]
    sites = args.sites or spec["sites"]
    seeds = instance_seeds(args.seed, spec["instances"])
    if args.trace:
        seeds = seeds[:1]
    inputs = make_inputs(binary, build_dir, taxa, sites, seeds)

    refdir = build_dir / "refs"
    refdir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-{taxa}x{sites}-trace{args.trace}"
    (build_dir / "results").mkdir(exist_ok=True)
    command = [str(binary), "run", f"--workload={args.workload}",
               "--inputs=" + ",".join(str(p) for p in inputs),
               "--seeds=" + ",".join(str(s) for s in seeds),
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--stored-refs={args.refs.resolve()}", f"--refdir={refdir}",
               f"--record={build_dir / 'results' / (tag + '.json')}"]
    if args.trace:
        (build_dir / "traces").mkdir(exist_ok=True)
        command.append(f"--trace-out={build_dir / 'traces' / (tag + '.json')}")

    remaining = RUN_DEADLINE_S - (time.monotonic() - started)
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=max(remaining, 1.0), check=False)
    except subprocess.TimeoutExpired:
        fail("measurement did not finish in time")
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        print("\n".join(lines))
        fail(f"e2e_bench exited with {done.returncode}")
    try:
        check_result(lines[-1])
    except (ValueError, KeyError) as error:
        print("\n".join(lines))
        fail(f"malformed result line ({error})")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
