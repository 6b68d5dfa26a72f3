#!/usr/bin/env python3
"""The benchmark's own tests, at toy size. Never checks timings.

Run from the repository root:

    python3 e2ebench/test_smoke.py

Checks that BENCHMARK.json follows its schema; that every workload, untraced
and traced, exits 0 with a JSON last line carrying exactly the metric names
and units BENCHMARK.json lists, with correct == true and failed == 0 (so
every correctness gate, counter identity and replay-equivalence check
passed); and that the benchmark fails without printing a result when the
repository's sources are missing.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def check_schema(bench):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(1 <= len(bench["command"]) <= 32, "command length")
    check(all(isinstance(a, str) and len(a) <= 200 for a in bench["command"]),
          "command strings")
    check(1 <= len(bench["paths"]) <= 16, "paths count")
    for path in bench["paths"]:
        check(PATH.match(path) and not path.startswith("/") and ".." not in path,
              f"path {path}")
    check(isinstance(bench["run_seconds"], int) and
          1 <= bench["run_seconds"] <= 60, "run_seconds")
    check(2 <= len(bench["workloads"]) <= 8, "workload count")
    names = []
    for w in bench["workloads"]:
        check(set(w) == {"name", "why"}, f"workload keys {w}")
        check(len(w["why"]) <= 200 and "\n" not in w["why"], "why length")
        names.append(w["name"])
    check(1 <= len(bench["end_to_end"]) <= 16, "end_to_end count")
    for m in bench["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, f"keys {m}")
        check(0 < m["bound"] <= 0.25, f"bound {m}")
    check(any(m["name"] == "setup_s" and m["unit"] == "s" and
              m["better"] == "lower" for m in bench["end_to_end"]), "setup_s")
    check(1 <= len(bench["per_layer"]) <= 128, "per_layer count")
    for m in bench["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"keys {m}")
    for m in bench["end_to_end"] + bench["per_layer"]:
        check(UNIT.match(m["unit"]), f"unit {m}")
        check(m["better"] in ("lower", "higher"), f"better {m}")
        names.append(m["name"])
    check(all(NAME.match(n) for n in names), "name syntax")
    check(len(names) == len(set(names)), "names are unique")


def run(args, cwd):
    return subprocess.run(["python3", "e2ebench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def check_run(bench, workload, trace):
    proc = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--smoke"], ROOT)
    what = f"{workload} --trace {trace}"
    check(proc.returncode == 0, f"{what}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{what}: result keys")
    check(result["correct"] is True and result["failed"] == 0,
          f"{what}: correctness gates failed\n{proc.stderr}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{what}: attempted")
    expected = bench["per_layer"] if trace else bench["end_to_end"]
    got = result["metrics"]
    check(set(got) == {m["name"] for m in expected},
          f"{what}: metric names differ: {sorted(set(got) ^ {m['name'] for m in expected})}")
    for m in expected:
        value = got[m["name"]]
        check(value["unit"] == m["unit"], f"{what}: unit of {m['name']}")
        check(isinstance(value["value"], (int, float)) and
              math.isfinite(value["value"]), f"{what}: value of {m['name']}")
    if not trace:
        check(all(got[m["name"]]["value"] != 0 for m in expected),
              f"{what}: an end-to-end metric reads 0")


def check_without_sources():
    # Build directories stay inside the checkout, as the benchmark's do.
    scratch = os.path.join(ROOT, ".bench_build", "no-sources")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
    shutil.copytree(os.path.join(ROOT, "e2ebench"),
                    os.path.join(scratch, "e2ebench"))
    env_proc = subprocess.run(
        ["python3", "e2ebench/run.py", "--workload", "explain-d10", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=180,
        env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
    shutil.rmtree(scratch, ignore_errors=True)
    check(env_proc.returncode != 0, "runs without the repository's sources")
    check("{" not in env_proc.stdout, "prints a result without sources")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_schema(bench)
    # explain-d10 runs only by hand (README), but keeps its smoke coverage.
    for name in [w["name"] for w in bench["workloads"]] + ["explain-d10"]:
        for trace in (0, 1):
            check_run(bench, name, trace)
            print(f"ok {name} --trace {trace}")
    check_without_sources()
    print("ok without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
