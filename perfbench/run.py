#!/usr/bin/env python3
"""termilog end-to-end and per-layer benchmark (see perfbench/README.md).

Run from the root of a termilog checkout:

    python3 perfbench/run.py --workload gen_cold --seed 2026 --seconds 10 \\
        --trace 0

It builds `termilog_cli` into `.bench_build/` (or $CARGO_TARGET_DIR), runs
the workload on inputs generated from --seed, checks every answer, and
prints one JSON object as its last stdout line: the `end_to_end` metrics
of BENCHMARK.json with --trace 0, its `per_layer` metrics with --trace 1.
Run metadata goes to the line before it. Scratch files live in
`.bench_work/` and are removed at exit.
"""

import argparse
import json
import os
import shutil
import sys
import time

sys.dont_write_bytecode = True  # leave nothing beside the sources

import build
import traced
import workloads

DEFAULT_SEED = 2026
HELD_OUT_SEED = 4099  # re-check later claims on this seed too



def source_digest(root):
    """The commit when the checkout is a git repository, else a digest of
    the C++ sources (a benchmark checkout carries no history)."""
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as f:
                    return "git:" + f.read().strip()
        return "git:" + ref
    import hashlib
    digest = hashlib.sha256()
    for top in ("src", "examples", "CMakeLists.txt"):
        base = os.path.join(root, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for path in sorted(paths):
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.TIMED))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            declared = json.load(f)
        binary, build_info = build.ensure_built(root)
        if args.trace and build_info["obs"].upper() in ("OFF", "FALSE", "0"):
            raise build.BenchError("--trace 1 needs a TERMILOG_OBS=ON build")
    except (OSError, ValueError, build.BenchError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 2

    work = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = workloads.Context(root, binary, work, args.seed, args.seconds)
    started = time.time()
    try:
        if args.trace:
            values = traced.TRACED[args.workload](ctx)
        else:
            values = workloads.TIMED[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = {
        "workload": args.workload, "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "commit": source_digest(root), "jobs": workloads.JOBS,
        "connections": workloads.CONNECTIONS, "window": workloads.WINDOW,
        "paced_rate_per_s": workloads.LISTEN_RATE,
        "listen_cpus": {"server": sorted(workloads.SERVER_CPUS),
                        "client": sorted(workloads.CLIENT_CPUS)},
        "run_s": round(time.time() - started, 3),
        "problems": ctx.problems,
    }
    meta.update(build_info)
    meta["samples"] = ctx.samples
    print(json.dumps({"meta": meta}))
    for problem in ctx.problems:
        print("perfbench: %s" % problem, file=sys.stderr)
    result = {
        "correct": not ctx.problems and ctx.failed == 0,
        "attempted": max(ctx.attempted, 1),
        "failed": ctx.failed,
        # A layer the workload does not exercise (net in a batch run,
        # store without --store) reports 0.
        "metrics": {m["name"]: {"value": values.get(m["name"], 0),
                                "unit": m["unit"]}
                    for m in declared["per_layer" if args.trace
                                      else "end_to_end"]},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
