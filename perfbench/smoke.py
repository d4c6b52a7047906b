#!/usr/bin/env python3
"""Smoke test of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/smoke.py

For every workload it runs a short window untraced and traced, and checks
that the result line is well formed, that every metric BENCHMARK.json
names is present, that no request failed, and that the traced layer
self-times cover the request wall-clock. Then it checks that an injected
wrong answer is counted as a failure, and that the benchmark refuses to
run (non-zero exit, no result) in a directory holding only
BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SECONDS = "1"
COVERAGE_MIN = 0.95


def run(workload, trace, *extra, cwd=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py") if cwd is None
           else os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", SECONDS,
           "--trace", str(trace), *extra]
    return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=cwd, timeout=300)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}, (name, m)
        assert isinstance(m["value"], (int, float)), (name, m)
    return result


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    def expect(cond, msg):
        print(("ok   " if cond else "FAIL ") + msg, flush=True)
        if not cond:
            problems.append(msg)

    for w in (w["name"] for w in spec["workloads"]):
        for trace, names in ((0, e2e), (1, layers)):
            r = result_of(run(w, trace))
            got = r["metrics"]
            missing = [n for n in names if n not in got]
            wrong_unit = [n for n in names if n in got and got[n]["unit"] != names[n]]
            expect(not missing and not wrong_unit,
                   f"{w} trace={trace}: all metrics present "
                   f"(missing {missing}, unit mismatch {wrong_unit})")
            expect(r["failed"] == 0 and r["correct"],
                   f"{w} trace={trace}: {r['failed']}/{r['attempted']} failed")
            if trace == 1:
                cov = got["trace.coverage"]["value"]
                expect(cov >= COVERAGE_MIN,
                       f"{w}: layer self-times cover {cov:.3f} of request wall-clock")
                expect(got["native.fallbacks"]["value"] == 0,
                       f"{w}: no native fallbacks")
        r = result_of(run(w, 0, "--inject-wrong", "2"))
        expect(r["failed"] >= 1 and not r["correct"]
               and r["metrics"]["ok_frac"]["value"] < 1.0,
               f"{w}: injected wrong answers counted ({r['failed']}/{r['attempted']})")

    bare = os.path.join(".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    proc = run("pcg", 0, cwd=bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"bare directory refused (exit {proc.returncode})")
    shutil.rmtree(bare, ignore_errors=True)

    print("smoke:", "FAILED" if problems else "passed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
