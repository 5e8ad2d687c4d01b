#!/usr/bin/env python3
"""End-to-end benchmark of dnasim: build the driver, make a workload's
inputs from a seed, run it, and print one JSON result as the last line
of standard output.

    python3 e2ebench/run.py --workload calibrate_simulate --seed 1 \
        --seconds 12 --trace 0
    python3 e2ebench/run.py --self-test

Run it from the root of a checkout. The build goes to .bench_build/;
inputs, span traces and results go to .bench_out/. README.md in this
directory describes the workloads and the metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("calibrate_simulate", "cluster_reconstruct", "archive_roundtrip")

# Threads for the par layer: two, so the parallel regions run in
# parallel while a 4-vCPU host keeps headroom for everything else
# (README.md, "Threads").
THREADS = 2
RUN_TIMEOUT_S = 170
# glibc raises its mmap threshold (and with it the heap trim threshold)
# to the size of the largest mmapped block freed so far. Which block
# that is depends on how the par layer's threads interleave, so the
# heap kept after a round, and with it peak_rss_mib, jumped by 4 MiB
# in some identical runs. Pinning the threshold at glibc's initial
# 128 KiB makes the peak the same in every run.
MALLOC_TUNABLE = "glibc.malloc.mmap_threshold=131072"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build the driver and the self-test."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "e2ebench",
                    "e2ebench_checks_test", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=THREADS,
                        help="par-layer threads (capped at nproc)")
    parser.add_argument("--self-test", action="store_true",
                        help="check that every correctness check rejects "
                             "a corrupted output")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        log("e2ebench: build failed:", err)
        return 1
    if args.self_test:
        return subprocess.run(
            [os.path.join(BUILD, "e2ebench_checks_test")]).returncode
    if args.workload is None:
        parser.error("--workload is required")

    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    inputs = os.path.join(OUT, "inputs", tag)
    shutil.rmtree(inputs, ignore_errors=True)
    os.makedirs(inputs)
    os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    driver = os.path.join(BUILD, "e2ebench")
    env = dict(os.environ)
    env["GLIBC_TUNABLES"] = ":".join(
        t for t in (env.get("GLIBC_TUNABLES"), MALLOC_TUNABLE) if t)
    try:
        subprocess.run([driver, "gen", "--workload", args.workload,
                        "--seed", str(args.seed), "--dir", inputs],
                       check=True, stdout=sys.stderr, env=env,
                       timeout=RUN_TIMEOUT_S)
        threads = max(1, min(args.threads, os.cpu_count() or 1))
        cmd = [driver, "run", "--workload", args.workload, "--dir", inputs,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--threads", str(threads)]
        if args.trace:
            cmd += ["--trace-out",
                    os.path.join(OUT, "traces", tag + ".json")]
        # Set-up is timed from here: the driver measures up to the end
        # of loading its inputs on the same monotonic clock.
        t0 = time.monotonic_ns()
        run = subprocess.run(cmd + ["--t0-ns", str(t0)],
                             stdout=subprocess.PIPE, text=True, env=env,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as err:
        log("e2ebench:", err)
        return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        log("e2ebench: driver exited with code %d" % run.returncode)
        if lines:
            print(lines[-1], flush=True)
        return run.returncode or 1
    with open(os.path.join(OUT, "results", tag + ".json"), "w") as out:
        out.write(lines[-1] + "\n")
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
