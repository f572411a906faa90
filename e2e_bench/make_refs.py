#!/usr/bin/env python3
"""Computes the serial references stored in e2e_bench/refs/.

A reference is the serial answer for one input and search seed: the
trees-evaluated count, the lnL bits and a digest of the final Newick. run.py
checks every search against the stored reference of its input, so a program
change that alters the answer fails the benchmark. Regenerate the files only
when such a change is intended:

    python3 e2e_bench/make_refs.py --workload rearrange-serial --seeds 0-99
    python3 e2e_bench/make_refs.py --workload addition-socket2 --seeds 0-99

rearrange-serial and rearrange-thread3 share their inputs and answers, so
one of them is enough. Run it from the repository root; lines already in a
file for other seeds are kept.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

# Inputs per call of the binary (it runs three serial searches at a time).
CHUNK = 24


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_range,
                        help="benchmark seeds, as FIRST-LAST")
    parser.add_argument("--out", type=Path, default=run.STORED_REFS)
    args = parser.parse_args()

    build_dir = Path.cwd() / ".bench_build" / "e2e_bench"
    binary = run.build(Path.cwd(), build_dir)
    spec = run.workload_spec(binary, args.workload)
    seeds = [s for seed in args.seeds
             for s in run.instance_seeds(seed, spec["instances"])]
    args.out.mkdir(parents=True, exist_ok=True)
    for start in range(0, len(seeds), CHUNK):
        chunk = seeds[start:start + CHUNK]
        inputs = run.make_inputs(binary, build_dir, spec["taxa"], spec["sites"],
                                 chunk)
        print(run.call(binary, "refs", f"--workload={args.workload}",
                       "--inputs=" + ",".join(str(p) for p in inputs),
                       "--seeds=" + ",".join(str(s) for s in chunk),
                       f"--out-dir={args.out.resolve()}", timeout=3600.0),
              end="", flush=True)


if __name__ == "__main__":
    main()
