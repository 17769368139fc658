#!/usr/bin/env python3
"""Self-test of the repo benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at the tiny size, untraced and
traced, twice each with one seed, through perfbench/run.py. Checks that
each run passes its reference checks, that it prints exactly the metrics
BENCHMARK.json names for that run kind, each with its unit, and that the
exact counts (GC counts, cache sizes, tier counters, shuffle bytes,
allocator calls; every metric counted rather than timed) repeat bit for
bit across the two invocations. Finally checks that the benchmark fails,
printing no result, when the engine sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
EXACT_UNITS = ("count", "ratio", "MB", "KB")
SEED = 7


def is_exact(name, unit, traced):
    if traced:
        return unit in EXACT_UNITS
    return name.startswith("cache_mb.")


def run(workload, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {p.returncode}\n"
                             f"{p.stdout}{p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def check_result(bench, workload, trace, result, errors):
    where = f"{workload} trace={trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: correct={result.get('correct')} "
                      f"failed={result.get('failed')}")
    if not result.get("attempted", 0) >= 1:
        errors.append(f"{where}: attempted={result.get('attempted')}")
    expected = bench["per_layer" if trace else "end_to_end"]
    printed = result["metrics"]
    names = {m["name"] for m in expected}
    if set(printed) != names:
        errors.append(f"{where}: missing {sorted(names - set(printed))}, "
                      f"unexpected {sorted(set(printed) - names)}")
    for m in expected:
        got = printed.get(m["name"])
        if got is not None and got.get("unit") != m["unit"]:
            errors.append(f"{where}: {m['name']} unit {got.get('unit')}, "
                          f"expected {m['unit']}")


def check_bare_tree(errors):
    """Without src/ the benchmark must fail and print no result."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"))
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "lr-knee", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, env=env,
                       capture_output=True, text=True, timeout=180)
    if p.returncode == 0 or p.stdout.strip():
        errors.append(f"bare tree: exit {p.returncode}, stdout {p.stdout!r}")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            first = run(w["name"], trace)
            second = run(w["name"], trace)
            for result in (first, second):
                check_result(bench, w["name"], trace, result, errors)
            for name, m in first["metrics"].items():
                if not is_exact(name, m["unit"], trace):
                    continue
                other = second["metrics"].get(name, {}).get("value")
                if other != m["value"]:
                    errors.append(f"{w['name']} trace={trace}: {name} "
                                  f"{m['value']} then {other}")
            print(f"ok {w['name']} trace={trace}", flush=True)
    check_bare_tree(errors)
    for e in errors:
        print("FAIL", e)
    print("selftest:", "FAILED" if errors else "passed")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
