#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see BENCHMARK.json at the root).

    python3 perfbench/run.py --workload lr-knee --seed 1 --seconds 30 --trace 0

Run from the root of a source tree. The first call configures and builds
the C++ client (perfbench/CMakeLists.txt, which compiles the engine under
src/) into the directory named by CARGO_TARGET_DIR, or .bench_build by
default; later calls only re-check the build. The client runs the workload
in Spark mode and Deca mode, checks its results, and prints one JSON
object as the last line of stdout: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. The exit status is nonzero when the
build fails or a reference check fails.

Extra options: --size tiny runs the self-test sizes.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("lr-knee", "stream-epochs", "serve-tiers")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures once, then builds only the benchmark target."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--size", args.size]
    if args.trace == "1":
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{args.workload}-seed{args.seed}.tsv")]
    # The engine's knobs are set in code; no DECA_* variable may leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DECA_")}
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S}s")
    finally:
        # The client removes its tmpfs spill directory itself; this covers
        # a crash that skipped its destructors.
        shutil.rmtree(f"/dev/shm/deca-perfbench-{proc.pid}", ignore_errors=True)
    if proc.returncode == 1:  # a reference check failed; the result says so
        sys.stdout.write(stdout)
        sys.exit(1)
    if proc.returncode != 0:
        sys.stderr.write(stdout)
        fail(f"client exited with status {proc.returncode}")
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
